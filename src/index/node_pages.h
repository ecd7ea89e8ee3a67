#ifndef GIR_INDEX_NODE_PAGES_H_
#define GIR_INDEX_NODE_PAGES_H_

#include <cstdint>
#include <vector>

#include "dataset/dataset.h"
#include "index/mbb.h"
#include "storage/arena_file.h"
#include "storage/disk_manager.h"

namespace gir {

// One node of a page store. Cheap to copy; valid as long as the store
// is alive, unmoved and (for the mutable tree) not grown.
class NodeView {
 public:
  bool is_leaf() const { return meta_->is_leaf != 0; }
  int level() const { return meta_->level; }
  size_t count() const { return meta_->count; }
  // The node's own box (the union of its entries), from the store's
  // node-box section.
  Mbb mbb() const;
  void MbbInto(Mbb* out) const;

  const int32_t* children() const { return children_; }
  int32_t child(size_t e) const { return children_[e]; }

  // SoA planes: count() contiguous doubles per dimension.
  const double* lo(size_t j) const { return coords_ + j * cap_; }
  const double* hi(size_t j) const { return coords_ + (dim_ + j) * cap_; }
  // Distance in doubles between consecutive planes (the capacity).
  size_t plane_stride() const { return cap_; }

  // Materializes entry `e` as an Mbb (bitwise its planes). Used where a
  // traversal retains a box, e.g. in PendingNode; the hot score loops
  // read the planes directly.
  Mbb EntryMbb(size_t e) const;

  // In-place variant: resizes out's corners to the tree
  // dimensionality (a no-op when the Mbb is being recycled) and fills
  // them with entry e's box. The shared-traversal executor drains
  // pending nodes through this so a warmed output vector is refilled
  // without touching the heap.
  void EntryMbbInto(size_t e, Mbb* out) const;

  // Copies entry `e`'s top corner (hi coordinates) into `out`,
  // resizing it to the tree dimensionality.
  void EntryTopCorner(size_t e, Vec* out) const;

 private:
  friend class NodePages;
  NodeView(const ArenaNodeMeta* meta, const double* box, const double* coords,
           const int32_t* children, size_t dim, size_t cap)
      : meta_(meta),
        box_(box),
        coords_(coords),
        children_(children),
        dim_(dim),
        cap_(cap) {}

  const ArenaNodeMeta* meta_;
  const double* box_;
  const double* coords_;
  const int32_t* children_;
  size_t dim_;
  size_t cap_;
};

// The page store both R-tree forms keep their nodes in: the arena
// file's four node sections, each an array indexed by page id. Per
// page: an ArenaNodeMeta; its own box (2*dim doubles, lo then hi); the
// entries' SoA planes at fixed capacity (for each dimension the lo
// values of all slots, then the hi values); and capacity child ids (a
// leaf's are record ids). Unused slots hold 0.0 and -1, and an empty
// page the EmptyBox box. This class reads the arrays through base
// pointers (RTree's vectors, FlatRTree's copy or an arena mapping) and
// holds everything that only reads the tree.
class NodePages {
 public:
  // Accounting-free node access.
  NodeView PeekNode(PageId page) const {
    const size_t p = page;
    return NodeView(meta_base_ + p, boxes_base_ + p * 2 * dim_,
                    coords_base_ + p * 2 * dim_ * capacity_,
                    children_base_ + p * capacity_, dim_, capacity_);
  }

  PageId root() const { return root_; }
  size_t height() const;  // number of levels (1 = root is a leaf)
  size_t size() const { return record_count_; }
  size_t node_count() const { return node_count_; }
  // Max entries per node, derived from the page size: each entry costs
  // 2*d*8 bytes of MBB plus 4 bytes of child id, and the node header is
  // 16 bytes.
  size_t Capacity() const { return capacity_; }

  // All record ids whose point intersects `box` (accounting-free; used
  // by tests to cross-check against linear scans), by one dispatched
  // interval-overlap pass per dimension over each node's planes.
  std::vector<RecordId> RangeQuery(const Mbb& box) const;

  // The four sections, page 0 first.
  const ArenaNodeMeta* meta() const { return meta_base_; }
  const double* boxes() const { return boxes_base_; }
  const double* coords() const { return coords_base_; }
  const int32_t* children() const { return children_base_; }

  const Dataset& dataset() const { return *dataset_; }
  DiskManager* disk() const { return disk_; }

 protected:
  // Moves keep the base pointers valid (a store's arrays move with
  // it); a copy would alias the source's arrays.
  NodePages() = default;
  NodePages(NodePages&&) = default;
  NodePages& operator=(NodePages&&) = default;
  NodePages(const NodePages&) = delete;
  NodePages& operator=(const NodePages&) = delete;

  // Aims the base pointers at `node_count` pages of storage.
  void Point(const ArenaNodeMeta* meta, const double* boxes,
             const double* coords, const int32_t* children,
             size_t node_count) {
    meta_base_ = meta;
    boxes_base_ = boxes;
    coords_base_ = coords;
    children_base_ = children;
    node_count_ = node_count;
  }

  const Dataset* dataset_ = nullptr;
  DiskManager* disk_ = nullptr;
  size_t dim_ = 0;
  size_t capacity_ = 0;
  PageId root_ = kInvalidPage;
  size_t record_count_ = 0;

 private:
  const ArenaNodeMeta* meta_base_ = nullptr;
  const double* boxes_base_ = nullptr;
  const double* coords_base_ = nullptr;
  const int32_t* children_base_ = nullptr;
  size_t node_count_ = 0;
};

}  // namespace gir

#endif  // GIR_INDEX_NODE_PAGES_H_
