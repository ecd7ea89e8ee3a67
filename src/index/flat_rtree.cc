#include "index/flat_rtree.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/simd.h"
#include "common/thread_pool.h"

namespace gir {

Mbb FlatRTree::NodeView::EntryMbb(size_t e) const {
  Mbb box;
  box.lo.resize(dim_);
  box.hi.resize(dim_);
  for (size_t j = 0; j < dim_; ++j) {
    box.lo[j] = lo(j)[e];
    box.hi[j] = hi(j)[e];
  }
  return box;
}

void FlatRTree::NodeView::EntryMbbInto(size_t e, Mbb* out) const {
  out->lo.resize(dim_);
  out->hi.resize(dim_);
  for (size_t j = 0; j < dim_; ++j) {
    out->lo[j] = lo(j)[e];
    out->hi[j] = hi(j)[e];
  }
}

void FlatRTree::NodeView::EntryTopCorner(size_t e, Vec* out) const {
  out->resize(dim_);
  for (size_t j = 0; j < dim_; ++j) (*out)[j] = hi(j)[e];
}

FlatRTree& FlatRTree::operator=(FlatRTree&& other) noexcept {
  dataset_ = other.dataset_;
  disk_ = other.disk_;
  dim_ = other.dim_;
  capacity_ = other.capacity_;
  node_stride_ = other.node_stride_;
  coords_ = std::move(other.coords_);
  children_ = std::move(other.children_);
  arena_ = std::move(other.arena_);
  meta_ = std::move(other.meta_);
  root_ = other.root_;
  record_count_ = other.record_count_;
  // Moves transfer the heap buffers, so re-anchoring on our own
  // buffers keeps the owned case valid; the mapped case keeps the
  // source's (mapping-stable) pointers.
  coords_base_ = arena_ != nullptr ? other.coords_base_ : coords_.get();
  children_base_ =
      arena_ != nullptr ? other.children_base_ : children_.get();
  other.coords_base_ = nullptr;
  other.children_base_ = nullptr;
  return *this;
}

FlatRTree FlatRTree::Freeze(const RTree& tree, const Dataset* dataset_override,
                            ThreadPool* pool) {
  FlatRTree flat;
  flat.dataset_ = dataset_override != nullptr ? dataset_override
                                              : &tree.dataset();
  flat.disk_ = tree.disk();
  flat.dim_ = tree.dataset().dim();
  flat.capacity_ = tree.Capacity();
  flat.node_stride_ = 2 * flat.dim_ * flat.capacity_;
  flat.root_ = tree.root();
  flat.record_count_ = tree.size();

  // The arrays are left uninitialized here: each node range writes
  // every slot of its own nodes (unused ones too), so the first touch
  // of a page, and its fault, happens on the thread that packs it.
  const size_t n = tree.node_count();
  const size_t dim = flat.dim_;
  const size_t cap = flat.capacity_;
  const size_t stride = flat.node_stride_;
  flat.coords_.reset(new double[n * stride]);
  flat.children_.reset(new int32_t[n * cap]);
  flat.meta_.resize(n);
  auto pack = [&](size_t p) {
    const RTreeNode& node = tree.PeekNode(static_cast<PageId>(p));
    const size_t count = node.entries.size();
    assert(count <= cap);
    FlatNodeMeta& meta = flat.meta_[p];
    meta.count = static_cast<uint32_t>(count);
    meta.level = node.level;
    meta.is_leaf = node.is_leaf;
    meta.mbb = node.ComputeMbb(dim);
    double* coords = flat.coords_.get() + p * stride;
    int32_t* children = flat.children_.get() + p * cap;
    std::fill(coords, coords + stride, 0.0);
    std::fill(children + count, children + cap, -1);
    for (size_t e = 0; e < count; ++e) {
      const RTreeEntry& entry = node.entries[e];
      children[e] = entry.child;
      for (size_t j = 0; j < dim; ++j) {
        coords[j * cap + e] = entry.mbb.lo[j];
        coords[(dim + j) * cap + e] = entry.mbb.hi[j];
      }
    }
  };
  if (pool == nullptr) {
    for (size_t p = 0; p < n; ++p) pack(p);
  } else {
    // A few ranges per thread even out the nodes' uneven fill.
    const size_t ranges = std::min(n, 4 * pool->size());
    pool->ParallelFor(ranges, [&](size_t r) {
      for (size_t p = n * r / ranges; p < n * (r + 1) / ranges; ++p) pack(p);
    });
  }
  flat.coords_base_ = flat.coords_.get();
  flat.children_base_ = flat.children_.get();
  return flat;
}

Result<FlatRTree> FlatRTree::FromArena(
    std::shared_ptr<const ArenaFile> arena, const Dataset* dataset,
    DiskManager* disk) {
  if (arena == nullptr || dataset == nullptr || disk == nullptr) {
    return Status::InvalidArgument("FromArena needs arena, dataset, disk");
  }
  if (dataset->dim() != arena->dim() ||
      dataset->size() != arena->dataset_rows()) {
    return Status::InvalidArgument(
        "dataset shape does not match the arena header");
  }
  FlatRTree flat;
  flat.dataset_ = dataset;
  flat.disk_ = disk;
  flat.dim_ = arena->dim();
  flat.capacity_ = arena->capacity();
  flat.node_stride_ = 2 * flat.dim_ * flat.capacity_;
  flat.root_ = arena->root() < 0 ? kInvalidPage
                                 : static_cast<PageId>(arena->root());
  flat.record_count_ = arena->record_count();
  // Hot arrays: straight into the mapping, zero copy.
  flat.coords_base_ = arena->coords();
  flat.children_base_ = arena->children();
  // Per-node metadata: the POD headers plus the MBB planes are small
  // (O(nodes * dim)), rebuilt on the heap because FlatNodeMeta carries
  // an allocated Mbb. A valid CRC proves integrity, not semantics, so
  // the structural checks here keep a hostile-but-checksummed file from
  // walking a traversal out of bounds: a leaf's children must be rows
  // of the dataset, an internal node's must be pages one level down
  // (levels fall strictly, so no walk can cycle).
  const size_t n = arena->node_count();
  const ArenaNodeMeta* metas = arena->node_meta();
  const int64_t node_limit = static_cast<int64_t>(n);
  const int64_t row_limit = static_cast<int64_t>(arena->dataset_rows());
  flat.meta_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const ArenaNodeMeta& m = metas[p];
    if (m.count > flat.capacity_) {
      return Status::DataLoss("arena node entry count exceeds capacity");
    }
    if ((m.is_leaf != 0) != (m.level == 0)) {
      return Status::DataLoss("arena leaf flag inconsistent with level");
    }
    FlatNodeMeta& meta = flat.meta_[p];
    meta.count = m.count;
    meta.level = m.level;
    meta.is_leaf = m.is_leaf != 0;
    const double* box = arena->node_mbbs() + p * 2 * flat.dim_;
    meta.mbb.lo.assign(box, box + flat.dim_);
    meta.mbb.hi.assign(box + flat.dim_, box + 2 * flat.dim_);
    const int32_t* children = flat.children_base_ + p * flat.capacity_;
    for (uint32_t e = 0; e < m.count; ++e) {
      const int32_t c = children[e];
      if (meta.is_leaf) {
        if (c < 0 || c >= row_limit) {
          return Status::DataLoss("arena leaf record id out of range");
        }
      } else if (c < 0 || c >= node_limit) {
        return Status::DataLoss("arena child page id out of range");
      } else if (static_cast<int64_t>(metas[c].level) !=
                 static_cast<int64_t>(m.level) - 1) {
        return Status::DataLoss("arena child level is not its parent's - 1");
      }
    }
  }
  // One walk from the root: every page it reaches must be reached once
  // (two parents sharing a child would make traversals see its records
  // twice), and the leaves it reaches must hold the header's records.
  size_t records = 0;
  if (flat.root_ != kInvalidPage) {
    std::vector<bool> reached(n, false);
    std::vector<PageId> stack = {flat.root_};
    reached[flat.root_] = true;
    while (!stack.empty()) {
      const PageId page = stack.back();
      stack.pop_back();
      const FlatNodeMeta& meta = flat.meta_[page];
      if (meta.is_leaf) {
        records += meta.count;
        continue;
      }
      const int32_t* children = flat.children_base_ + page * flat.capacity_;
      for (uint32_t e = 0; e < meta.count; ++e) {
        if (reached[children[e]]) {
          return Status::DataLoss("arena page reached twice");
        }
        reached[children[e]] = true;
        stack.push_back(static_cast<PageId>(children[e]));
      }
    }
  }
  if (records != flat.record_count_) {
    return Status::DataLoss("arena leaves do not hold its record count");
  }
  flat.arena_ = std::move(arena);
  return flat;
}

size_t FlatRTree::height() const {
  if (root_ == kInvalidPage) return 0;
  return static_cast<size_t>(meta_[root_].level) + 1;
}

std::vector<RecordId> FlatRTree::RangeQuery(const Mbb& box) const {
  std::vector<RecordId> out;
  if (root_ == kInvalidPage) return out;
  std::vector<PageId> stack = {root_};
  // Per-node interval-overlap sweep over the SoA planes: one
  // SIMD-dispatched pass per dimension narrows the survivor mask, so
  // the per-entry branch only runs for boxes that truly overlap.
  std::vector<uint8_t> mask;
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    NodeView node = PeekNode(page);
    const size_t count = node.count();
    mask.assign(count, 1);
    for (size_t j = 0; j < dim_; ++j) {
      simd::IntervalOverlapMask(node.lo(j), node.hi(j), box.lo[j], box.hi[j],
                                mask.data(), count);
    }
    for (size_t e = 0; e < count; ++e) {
      if (!mask[e]) continue;
      if (node.is_leaf()) {
        out.push_back(node.child(e));
      } else {
        stack.push_back(static_cast<PageId>(node.child(e)));
      }
    }
  }
  return out;
}

}  // namespace gir
