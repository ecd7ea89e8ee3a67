#ifndef GIR_INDEX_RTREE_H_
#define GIR_INDEX_RTREE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "index/mbb.h"
#include "index/node_pages.h"
#include "storage/disk_manager.h"

namespace gir {

class FlatRTree;
class ThreadPool;

// Disk-resident R*-tree over a Dataset (Beckmann et al., SIGMOD 1990):
// ChooseSubtree with minimum overlap enlargement at the leaf level,
// forced reinsertion on first overflow per level, and the R* topological
// split (axis by margin sum, distribution by overlap then area). An STR
// bulk loader (Leutenegger et al.) is provided for benchmark-scale
// construction.
//
// The mutable tree is the build and update structure. It keeps its
// nodes in the arena's page format (NodePages), in growable arrays; the
// R* algorithms edit page slots in place, an overflowing node in one
// scratch of Capacity() + 1 entries. Queries run on its frozen image
// (FlatRTree::Freeze copies the arrays), and RTree::Thaw copies an
// image, such as one mapped from an arena file, back into the tree.
class RTree : public NodePages {
 public:
  // Builds an empty tree. `dataset` and `disk` must outlive the tree.
  RTree(const Dataset* dataset, DiskManager* disk);

  // Inserts one record (R* insertion with forced reinsert).
  void Insert(RecordId id);

  // Removes one record (Guttman FindLeaf + CondenseTree with R*
  // reinsertion of orphaned entries): underfull nodes along the
  // deletion path are dissolved and their entries reinserted at their
  // original level; a single-child root is collapsed. Freed pages go on
  // a free list and are reused by later splits, so the page arena stays
  // bounded under sustained update churn. Returns false when the record
  // is not in the tree.
  bool Delete(RecordId id);

  // True when the record is present in a leaf (same FindLeaf walk as
  // Delete, no mutation). ApplyUpdates probes every delete id with this
  // *before* mutating anything, so a broken index invariant rejects the
  // whole batch instead of leaving earlier deletes applied.
  bool Contains(RecordId id) const;

  // Sort-Tile-Recursive bulk load of the live records of the dataset
  // (tombstoned records are skipped). It tiles a packed copy of the
  // live rows, the slabs below axis 0 in parallel on a short-lived
  // MakeSetupPool (inline below a few thousand records).
  static RTree BulkLoad(const Dataset* dataset, DiskManager* disk);
  // The same load with the slabs tiled on `pool` (null: inline). Every
  // pool builds the identical tree: page ids, levels, entry order, MBB
  // bits and DiskManager counters.
  static RTree BulkLoad(const Dataset* dataset, DiskManager* disk,
                        ThreadPool* pool);

  // Rebuilds the tree `flat` was frozen from, the inverse of
  // FlatRTree::Freeze: it copies the page arrays back. Pages the root
  // does not reach are cleared and go back on the free list. `dataset`
  // is the record image the tree indexes and `disk` a fresh
  // DiskManager, which gets one allocation per page and no writes.
  // InvalidArgument when `dataset`'s dimensionality or `disk`'s page
  // size gives another node shape than the image's. The image must be
  // well formed: Freeze's output, or an arena FlatRTree::FromArena
  // accepted (it rejects a page reached twice and leaves that do not
  // hold the header's record count).
  static Result<RTree> Thaw(const FlatRTree& flat, const Dataset* dataset,
                            DiskManager* disk);

  // Structural invariants: MBB containment, fill factors, level
  // consistency, record multiset equality, and every page box the
  // union of its entries. Used by tests.
  Status Validate() const;

 private:
  // A node's entries: its page slots, or the scratch while it overflows
  // (count Capacity() + 1). Entry e's lo(j) is coords[j * stride + e],
  // its hi(j) coords[(dim + j) * stride + e].
  struct Slots {
    double* coords;
    int32_t* children;
    size_t stride;
  };

  PageId NewNode(bool is_leaf, int level);
  void FreeNode(PageId page);
  void Anchor();  // aims the base pointers at the arrays
  double* Box(PageId page) { return boxes_.data() + page * 2 * dim_; }
  Slots PageSlots(PageId page);
  Slots SlotsOf(PageId page);
  // Each edit below refolds the page box from the entries, in entry
  // order (FoldBox). WriteEntries writes `n` entries of `from` (entry
  // order[i], or i) to the page's first slots and clears the rest;
  // AddEntry appends one (box: lo then hi), moving a full page into the
  // scratch; SetChildBox sets parent's entry for child to child's box.
  void WriteEntries(PageId page, const Slots& from, const uint32_t* order,
                    size_t n);
  void AddEntry(PageId page, const double* box, int32_t child);
  void RemoveEntry(PageId page, int32_t child);
  void SetChildBox(PageId parent, PageId child);
  void FoldBox(PageId page);

  // Deletion machinery.
  bool FindLeaf(PageId page, const double* point, RecordId id,
                std::vector<PageId>* path) const;
  void CondenseTree(std::vector<PageId> path);

  // R* machinery. Boxes are 2*dim doubles, lo then hi.
  PageId ChooseSubtree(const double* box, int target_level,
                       std::vector<PageId>* path) const;
  void InsertEntry(const double* box, int32_t child, int target_level,
                   int reinsert_depth);
  void OverflowTreatment(PageId page, std::vector<PageId>& path,
                         int reinsert_depth);
  void Reinsert(PageId page, std::vector<PageId>& path, int reinsert_depth);
  void Split(PageId page, std::vector<PageId>& path);
  // R* split of the scratch: the first *split_at entries of `order`
  // stay, the rest move to the sibling.
  void ChooseSplit(std::vector<uint32_t>* order, size_t* split_at) const;
  void RefreshPathMbbs(const std::vector<PageId>& path, PageId child);

  size_t min_entries_ = 0;
  std::vector<ArenaNodeMeta> meta_;  // the page arrays (NodePages)
  std::vector<double> boxes_;
  std::vector<double> coords_;
  std::vector<int32_t> children_;
  std::vector<double> scratch_coords_;  // Capacity() + 1 entries
  std::vector<int32_t> scratch_children_;
  // Pages dissolved by CondenseTree, reusable; sorted by id, so the
  // list is a function of which slots are free and Thaw rebuilds it.
  std::vector<PageId> free_pages_;
  // R*: a bit per level that reinserted in this Insert or Delete.
  uint64_t reinserted_levels_ = 0;
  bool bulk_loaded_ = false;
};

}  // namespace gir

#endif  // GIR_INDEX_RTREE_H_
