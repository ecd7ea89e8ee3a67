#ifndef GIR_INDEX_RTREE_H_
#define GIR_INDEX_RTREE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "index/mbb.h"
#include "storage/disk_manager.h"

namespace gir {

class FlatRTree;
class ThreadPool;

// One slot of an R-tree node: for internal nodes `child` is a PageId,
// for leaves it is a RecordId (and the MBB is the point itself).
struct RTreeEntry {
  Mbb mbb;
  int32_t child = -1;
};

// An R-tree node, sized to fit one disk page.
struct RTreeNode {
  bool is_leaf = true;
  int level = 0;  // 0 = leaf
  std::vector<RTreeEntry> entries;

  Mbb ComputeMbb(size_t dim) const;
};

struct RTreeOptions {
  // Fraction of capacity below which nodes are considered underfull.
  double min_fill = 0.4;
  // R*: fraction of entries forcibly reinserted on first overflow.
  double reinsert_fraction = 0.3;
};

// Disk-resident R*-tree over a Dataset (Beckmann et al., SIGMOD 1990):
// ChooseSubtree with minimum overlap enlargement at the leaf level,
// forced reinsertion on first overflow per level, and the R* topological
// split (axis by margin sum, distribution by overlap then area). An STR
// bulk loader (Leutenegger et al.) is provided for benchmark-scale
// construction.
//
// The mutable tree is the build and update structure; queries run on
// its frozen image (FlatRTree::Freeze), whose ReadNode charges one page
// read per node access to the DiskManager. RTree::Thaw turns a frozen
// image, such as one mapped from an arena file, back into the tree.
class RTree {
 public:
  // Builds an empty tree. `dataset` and `disk` must outlive the tree.
  RTree(const Dataset* dataset, DiskManager* disk,
        const RTreeOptions& options = {});

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
  static RTree BulkLoad(const Dataset* dataset, DiskManager* disk,
                        const RTreeOptions& options = {});
  // The same load with the slabs tiled on `pool` (null: inline). Every
  // pool builds the identical tree: page ids, levels, entry order, MBB
  // bits and DiskManager counters.
  static RTree BulkLoad(const Dataset* dataset, DiskManager* disk,
                        const RTreeOptions& options, ThreadPool* pool);

  // Rebuilds the tree `flat` was frozen from, the inverse of
  // FlatRTree::Freeze: every page keeps its id, level and leaf flag,
  // every entry its child and the bits of its box (read off the lo/hi
  // planes). Pages the root does not reach go back on the free list.
  // `dataset` is the record image the tree indexes and `disk` a fresh
  // DiskManager, which gets one allocation per page and no writes.
  // InvalidArgument when `dataset`'s dimensionality or `disk`'s page
  // size gives another node shape than the image's. The image must be
  // well formed: Freeze's output, or an arena FlatRTree::FromArena
  // accepted (it rejects a page reached twice and leaves that do not
  // hold the header's record count).
  static Result<RTree> Thaw(const FlatRTree& flat, const Dataset* dataset,
                            DiskManager* disk);

  // Accounting-free node access (Freeze, validation).
  const RTreeNode& PeekNode(PageId page) const { return nodes_[page]; }

  PageId root() const { return root_; }
  size_t height() const;  // number of levels (1 = root is a leaf)
  size_t size() const { return record_count_; }
  size_t node_count() const { return nodes_.size(); }

  // Max entries per node, derived from the page size: each entry costs
  // 2*d*8 bytes of MBB plus 4 bytes of child id, and the node header is
  // 16 bytes.
  size_t Capacity() const { return capacity_; }

  // All record ids whose point intersects `box` (accounting-free; used
  // by tests to cross-check against linear scans).
  std::vector<RecordId> RangeQuery(const Mbb& box) const;

  // Structural invariants: MBB containment, fill factors, level
  // consistency, record multiset equality. Used by tests.
  Status Validate() const;

  const Dataset& dataset() const { return *dataset_; }
  DiskManager* disk() const { return disk_; }

 private:
  PageId NewNode(bool is_leaf, int level);
  void FreeNode(PageId page);
  Mbb EntryMbbOf(const RTreeNode& node) const;

  // Deletion machinery.
  bool FindLeaf(PageId page, const Mbb& point, RecordId id,
                std::vector<PageId>* path) const;
  void CondenseTree(std::vector<PageId> path);

  // R* machinery.
  PageId ChooseSubtree(const Mbb& box, int target_level,
                       std::vector<PageId>* path) const;
  void InsertEntry(RTreeEntry entry, int target_level, int reinsert_depth);
  void OverflowTreatment(PageId page, std::vector<PageId>& path,
                         int reinsert_depth);
  void Reinsert(PageId page, std::vector<PageId>& path, int reinsert_depth);
  void Split(PageId page, std::vector<PageId>& path);
  // R* split choice: returns the entries partitioned into two groups.
  static void ChooseSplit(std::vector<RTreeEntry>& entries, size_t dim,
                          size_t min_fill, std::vector<RTreeEntry>* left,
                          std::vector<RTreeEntry>* right);
  void RefreshPathMbbs(const std::vector<PageId>& path, PageId child);

  const Dataset* dataset_;
  DiskManager* disk_;
  RTreeOptions options_;
  size_t capacity_;
  size_t min_entries_;
  std::vector<RTreeNode> nodes_;
  // Pages dissolved by CondenseTree, reusable; sorted by id, so the
  // list is a function of which slots are free and Thaw rebuilds it.
  std::vector<PageId> free_pages_;
  PageId root_ = kInvalidPage;
  size_t record_count_ = 0;
  bool bulk_loaded_ = false;
};

}  // namespace gir

#endif  // GIR_INDEX_RTREE_H_
