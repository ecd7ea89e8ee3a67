#include "index/flat_rtree.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"

namespace gir {

FlatRTree FlatRTree::Freeze(const RTree& tree, const Dataset* dataset_override,
                            ThreadPool* pool) {
  FlatRTree flat;
  flat.dataset_ = dataset_override != nullptr ? dataset_override
                                              : &tree.dataset();
  flat.disk_ = tree.disk();
  flat.dim_ = tree.dataset().dim();
  flat.capacity_ = tree.Capacity();
  flat.root_ = tree.root();
  flat.record_count_ = tree.size();

  // The arrays are left uninitialized here: each node range copies its
  // own pages, so the first touch of a page, and its fault, happens on
  // the thread that copies it.
  const size_t n = tree.node_count();
  const size_t box = 2 * flat.dim_;
  const size_t stride = box * flat.capacity_;
  const size_t cap = flat.capacity_;
  flat.meta_.reset(new ArenaNodeMeta[n]);
  flat.boxes_.reset(new double[n * box]);
  flat.coords_.reset(new double[n * stride]);
  flat.children_.reset(new int32_t[n * cap]);
  auto copy = [&](size_t lo, size_t hi) {
    std::copy(tree.meta() + lo, tree.meta() + hi, flat.meta_.get() + lo);
    std::copy(tree.boxes() + lo * box, tree.boxes() + hi * box,
              flat.boxes_.get() + lo * box);
    std::copy(tree.coords() + lo * stride, tree.coords() + hi * stride,
              flat.coords_.get() + lo * stride);
    std::copy(tree.children() + lo * cap, tree.children() + hi * cap,
              flat.children_.get() + lo * cap);
  };
  if (pool == nullptr) {
    copy(0, n);
  } else {
    const size_t ranges = std::min(n, 4 * pool->size());
    pool->ParallelFor(ranges, [&](size_t r) {
      copy(n * r / ranges, n * (r + 1) / ranges);
    });
  }
  flat.Point(flat.meta_.get(), flat.boxes_.get(), flat.coords_.get(),
             flat.children_.get(), n);
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
  flat.root_ = arena->root() < 0 ? kInvalidPage
                                 : static_cast<PageId>(arena->root());
  flat.record_count_ = arena->record_count();
  // All four arrays: straight into the mapping, zero copy.
  const size_t n = arena->node_count();
  flat.Point(arena->node_meta(), arena->node_mbbs(), arena->coords(),
             arena->children(), n);
  // A valid CRC proves integrity, not semantics, so the structural
  // checks here keep a hostile-but-checksummed file from walking a
  // traversal out of bounds: a leaf's children must be rows of the
  // dataset, an internal node's must be pages one level down (levels
  // fall strictly, so no walk can cycle).
  const ArenaNodeMeta* metas = arena->node_meta();
  const int64_t node_limit = static_cast<int64_t>(n);
  const int64_t row_limit = static_cast<int64_t>(arena->dataset_rows());
  for (size_t p = 0; p < n; ++p) {
    const ArenaNodeMeta& m = metas[p];
    if (m.count > flat.capacity_) {
      return Status::DataLoss("arena node entry count exceeds capacity");
    }
    if ((m.is_leaf != 0) != (m.level == 0)) {
      return Status::DataLoss("arena leaf flag inconsistent with level");
    }
    const int32_t* children = flat.PeekNode(static_cast<PageId>(p)).children();
    for (uint32_t e = 0; e < m.count; ++e) {
      const int32_t c = children[e];
      if (m.is_leaf != 0) {
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
  // One walk from the root: no page reached twice (traversals would see
  // its records twice), no internal page under two entries (R* never
  // leaves one; a thawed root with one child empties in CondenseTree),
  // and leaves holding the header's records.
  size_t records = 0;
  if (flat.root_ != kInvalidPage) {
    std::vector<bool> reached(n, false);
    std::vector<PageId> stack = {flat.root_};
    reached[flat.root_] = true;
    while (!stack.empty()) {
      const NodeView node = flat.PeekNode(stack.back());
      stack.pop_back();
      if (node.is_leaf()) {
        records += node.count();
        continue;
      }
      if (node.count() < 2) {
        return Status::DataLoss("arena internal page holds under two entries");
      }
      for (size_t e = 0; e < node.count(); ++e) {
        if (reached[node.child(e)]) {
          return Status::DataLoss("arena page reached twice");
        }
        reached[node.child(e)] = true;
        stack.push_back(static_cast<PageId>(node.child(e)));
      }
    }
  }
  if (records != flat.record_count_) {
    return Status::DataLoss("arena leaves do not hold its record count");
  }
  flat.arena_ = std::move(arena);
  return flat;
}

}  // namespace gir
