#include "index/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>

#include "common/thread_pool.h"
#include "index/flat_rtree.h"

namespace gir {

namespace {

// R*: a node below this fraction of capacity is underfull, and a node's
// first overflow on a level reinserts this fraction of its entries.
constexpr double kMinFill = 0.4;
constexpr double kReinsertFraction = 0.3;

// A box read in place: lo(j) = p[j * stride], hi(j) = p[(dim + j) *
// stride]. Stride 1 reads a contiguous box (lo then hi, as a page box
// is stored); a node's plane stride reads its entry e at p = coords + e.
struct BoxRef {
  const double* p;
  size_t stride;
  size_t dim;

  double lo(size_t j) const { return p[j * stride]; }
  double hi(size_t j) const { return p[(dim + j) * stride]; }
};

// The box arithmetic of the R* choices, operation for operation the Mbb
// arithmetic the per-entry node layout used, so every choice and every
// box bit is the same.
double Area(BoxRef b) {
  double a = 1.0;
  for (size_t j = 0; j < b.dim; ++j) a *= std::max(0.0, b.hi(j) - b.lo(j));
  return a;
}

double Margin(BoxRef b) {
  double m = 0.0;
  for (size_t j = 0; j < b.dim; ++j) m += std::max(0.0, b.hi(j) - b.lo(j));
  return m;
}

double OverlapArea(BoxRef a, BoxRef b) {
  double area = 1.0;
  for (size_t j = 0; j < a.dim; ++j) {
    double w = std::min(a.hi(j), b.hi(j)) - std::max(a.lo(j), b.lo(j));
    if (w <= 0.0) return 0.0;
    area *= w;
  }
  return area;
}

double Enlargement(BoxRef a, BoxRef b) {
  double enlarged = 1.0;
  for (size_t j = 0; j < a.dim; ++j) {
    enlarged *= std::max(a.hi(j), b.hi(j)) - std::min(a.lo(j), b.lo(j));
  }
  return enlarged - Area(a);
}

double CenterDistanceSquared(BoxRef a, BoxRef b) {
  double s = 0.0;
  for (size_t j = 0; j < a.dim; ++j) {
    double dc = 0.5 * (a.lo(j) + a.hi(j)) - 0.5 * (b.lo(j) + b.hi(j));
    s += dc * dc;
  }
  return s;
}

// The union of `n` entries of a node's planes (entry order[i], or entry
// i when `order` is null), folded into `out` (lo then hi) from the
// empty box in that order.
void Fold(const double* coords, size_t stride, size_t dim,
          const uint32_t* order, size_t n, double* out) {
  for (size_t j = 0; j < dim; ++j) {
    double lo = 1e300;
    double hi = -1e300;
    for (size_t i = 0; i < n; ++i) {
      const size_t e = order != nullptr ? order[i] : i;
      lo = std::min(lo, coords[j * stride + e]);
      hi = std::max(hi, coords[(dim + j) * stride + e]);
    }
    out[j] = lo;
    out[dim + j] = hi;
  }
}

}  // namespace

RTree::RTree(const Dataset* dataset, DiskManager* disk) {
  dataset_ = dataset;
  disk_ = disk;
  dim_ = dataset->dim();
  const size_t header_bytes = 16;
  const size_t entry_bytes = 2 * dim_ * sizeof(double) + sizeof(int32_t);
  capacity_ = (disk->page_size_bytes() - header_bytes) / entry_bytes;
  assert(capacity_ >= 4 && "page too small for this dimensionality");
  min_entries_ =
      std::max<size_t>(2, static_cast<size_t>(capacity_ * kMinFill));
  scratch_coords_.resize(2 * dim_ * (capacity_ + 1));
  scratch_children_.resize(capacity_ + 1);
}

void RTree::Anchor() {
  Point(meta_.data(), boxes_.data(), coords_.data(), children_.data(),
        meta_.size());
}

PageId RTree::NewNode(bool is_leaf, int level) {
  PageId page;
  if (!free_pages_.empty()) {
    // Reuse a page dissolved by CondenseTree (FreeNode left it empty);
    // no fresh allocation.
    page = free_pages_.back();
    free_pages_.pop_back();
  } else {
    page = disk_->Allocate();
    assert(page == meta_.size());
    meta_.emplace_back();
    boxes_.insert(boxes_.end(), dim_, 1e300);
    boxes_.insert(boxes_.end(), dim_, -1e300);
    coords_.resize(coords_.size() + 2 * dim_ * capacity_, 0.0);
    children_.resize(children_.size() + capacity_, -1);
    Anchor();
  }
  meta_[page].is_leaf = is_leaf ? 1 : 0;
  meta_[page].level = level;
  disk_->NoteWrite();
  return page;
}

void RTree::FreeNode(PageId page) {
  WriteEntries(page, PageSlots(page), nullptr, 0);
  free_pages_.insert(
      std::upper_bound(free_pages_.begin(), free_pages_.end(), page), page);
}

RTree::Slots RTree::PageSlots(PageId page) {
  return {coords_.data() + page * 2 * dim_ * capacity_,
          children_.data() + page * capacity_, capacity_};
}

RTree::Slots RTree::SlotsOf(PageId page) {
  if (meta_[page].count > capacity_) {
    return {scratch_coords_.data(), scratch_children_.data(), capacity_ + 1};
  }
  return PageSlots(page);
}

void RTree::FoldBox(PageId page) {
  const Slots s = SlotsOf(page);
  Fold(s.coords, s.stride, dim_, nullptr, meta_[page].count, Box(page));
}

void RTree::WriteEntries(PageId page, const Slots& from,
                         const uint32_t* order, size_t n) {
  const Slots to = PageSlots(page);
  for (size_t i = 0; i < n; ++i) {
    const size_t e = order != nullptr ? order[i] : i;
    to.children[i] = from.children[e];
    for (size_t j = 0; j < 2 * dim_; ++j) {
      to.coords[j * capacity_ + i] = from.coords[j * from.stride + e];
    }
  }
  for (size_t j = 0; j < 2 * dim_; ++j) {
    std::fill(to.coords + j * capacity_ + n, to.coords + (j + 1) * capacity_,
              0.0);
  }
  std::fill(to.children + n, to.children + capacity_, -1);
  meta_[page].count = static_cast<uint32_t>(n);
  FoldBox(page);
}

void RTree::AddEntry(PageId page, const double* box, int32_t child) {
  const size_t at = meta_[page].count++;
  const Slots to = SlotsOf(page);
  if (at == capacity_) {
    // The node overflows: it moves, with the new entry last, into the
    // scratch, where Reinsert or Split takes it apart.
    const Slots from = PageSlots(page);
    for (size_t j = 0; j < 2 * dim_; ++j) {
      std::copy_n(from.coords + j * capacity_, capacity_,
                  to.coords + j * to.stride);
    }
    std::copy_n(from.children, capacity_, to.children);
  }
  to.children[at] = child;
  for (size_t j = 0; j < 2 * dim_; ++j) to.coords[j * to.stride + at] = box[j];
  FoldBox(page);
}

void RTree::RemoveEntry(PageId page, int32_t child) {
  const Slots s = PageSlots(page);
  const size_t n = meta_[page].count;
  const size_t e = std::find(s.children, s.children + n, child) - s.children;
  if (e == n) return;
  for (size_t j = 0; j < 2 * dim_; ++j) {
    double* plane = s.coords + j * capacity_;
    std::copy(plane + e + 1, plane + n, plane + e);
    plane[n - 1] = 0.0;
  }
  std::copy(s.children + e + 1, s.children + n, s.children + e);
  s.children[n - 1] = -1;
  meta_[page].count = static_cast<uint32_t>(n - 1);
  FoldBox(page);
}

void RTree::SetChildBox(PageId parent, PageId child) {
  const Slots s = SlotsOf(parent);
  const size_t n = meta_[parent].count;
  const size_t e = std::find(s.children, s.children + n,
                             static_cast<int32_t>(child)) - s.children;
  const double* box = Box(child);
  for (size_t j = 0; e < n && j < 2 * dim_; ++j) {
    s.coords[j * s.stride + e] = box[j];
  }
  FoldBox(parent);
}

PageId RTree::ChooseSubtree(const double* box, int target_level,
                            std::vector<PageId>* path) const {
  const BoxRef b{box, 1, dim_};
  std::vector<double> enlarged(2 * dim_);
  PageId current = root_;
  path->push_back(current);
  while (PeekNode(current).level() > target_level) {
    const NodeView node = PeekNode(current);
    auto entry = [&](size_t e) { return BoxRef{node.lo(0) + e, capacity_, dim_}; };
    const bool choosing_leaf = node.level() == 1 && target_level == 0;
    size_t best = 0;
    double best_primary = 1e300;
    double best_secondary = 1e300;
    double best_area = 1e300;
    for (size_t i = 0; i < node.count(); ++i) {
      const BoxRef e = entry(i);
      double area = Area(e);
      double enlargement = Enlargement(e, b);
      double primary;
      if (choosing_leaf) {
        // R*: minimize overlap enlargement among siblings.
        for (size_t j = 0; j < dim_; ++j) {
          enlarged[j] = std::min(e.lo(j), b.lo(j));
          enlarged[dim_ + j] = std::max(e.hi(j), b.hi(j));
        }
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (size_t j = 0; j < node.count(); ++j) {
          if (j == i) continue;
          overlap_before += OverlapArea(e, entry(j));
          overlap_after += OverlapArea({enlarged.data(), 1, dim_}, entry(j));
        }
        primary = overlap_after - overlap_before;
      } else {
        primary = enlargement;
      }
      double secondary = choosing_leaf ? enlargement : area;
      double tertiary = choosing_leaf ? area : 0.0;
      if (primary < best_primary - 1e-18 ||
          (primary <= best_primary + 1e-18 &&
           (secondary < best_secondary - 1e-18 ||
            (secondary <= best_secondary + 1e-18 && tertiary < best_area)))) {
        best = i;
        best_primary = primary;
        best_secondary = secondary;
        best_area = tertiary;
      }
    }
    current = static_cast<PageId>(node.child(best));
    path->push_back(current);
  }
  return current;
}

void RTree::RefreshPathMbbs(const std::vector<PageId>& path, PageId child) {
  // Walk from the deepest ancestor upward, synchronizing the entry that
  // points at `child` (then at its parent, and so on).
  for (size_t i = path.size(); i-- > 0;) {
    if (path[i] == child) continue;
    SetChildBox(path[i], child);
    child = path[i];
  }
}

void RTree::Insert(RecordId id) {
  reinserted_levels_ = 0;
  const VecView p = dataset_->Get(id);
  std::vector<double> box(2 * dim_);
  std::copy(p.begin(), p.end(), box.begin());
  std::copy(p.begin(), p.end(), box.begin() + dim_);
  InsertEntry(box.data(), id, /*target_level=*/0, /*reinsert_depth=*/0);
  ++record_count_;
}

bool RTree::FindLeaf(PageId page, const double* point, RecordId id,
                     std::vector<PageId>* path) const {
  path->push_back(page);
  const NodeView node = PeekNode(page);
  for (size_t e = 0; e < node.count(); ++e) {
    if (node.is_leaf()) {
      if (node.child(e) == id) return true;
      continue;
    }
    bool intersects = true;
    for (size_t j = 0; j < dim_ && intersects; ++j) {
      intersects = !(point[j] < node.lo(j)[e] || point[j] > node.hi(j)[e]);
    }
    if (intersects &&
        FindLeaf(static_cast<PageId>(node.child(e)), point, id, path)) {
      return true;
    }
  }
  path->pop_back();
  return false;
}

void RTree::CondenseTree(std::vector<PageId> path) {
  // Walk from the leaf upward. A node that fell below the fill floor is
  // dissolved: its entry is removed from the parent and its surviving
  // entries queue for reinsertion at their original level (Guttman's
  // CondenseTree, with the R* insertion doing the reinsert work). Each
  // orphan keeps its box (lo then hi), child and level.
  std::vector<double> boxes;
  std::vector<int32_t> children;
  std::vector<int> levels;
  while (path.size() > 1) {
    PageId page = path.back();
    path.pop_back();
    PageId parent = path.back();
    const size_t count = meta_[page].count;
    if (count < min_entries_) {
      RemoveEntry(parent, static_cast<int32_t>(page));
      const Slots s = PageSlots(page);
      for (size_t e = 0; e < count; ++e) {
        for (size_t j = 0; j < 2 * dim_; ++j) {
          boxes.push_back(s.coords[j * capacity_ + e]);
        }
        children.push_back(s.children[e]);
        levels.push_back(meta_[page].level);
      }
      FreeNode(page);
    } else {
      SetChildBox(parent, page);
    }
  }
  // Higher-level orphans first: reattaching a subtree before its records
  // keeps ChooseSubtree's target levels reachable.
  std::vector<uint32_t> order(levels.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return levels[a] > levels[b]; });
  for (uint32_t o : order) {
    InsertEntry(boxes.data() + o * 2 * dim_, children[o], levels[o],
                /*reinsert_depth=*/0);
  }
}

bool RTree::Contains(RecordId id) const {
  if (root_ == kInvalidPage) return false;
  std::vector<PageId> path;
  return FindLeaf(root_, dataset_->Get(id).data(), id, &path);
}

bool RTree::Delete(RecordId id) {
  if (root_ == kInvalidPage) return false;
  std::vector<PageId> path;
  if (!FindLeaf(root_, dataset_->Get(id).data(), id, &path)) return false;

  RemoveEntry(path.back(), id);
  --record_count_;

  // Orphan reinsertion may overflow nodes; give OverflowTreatment the
  // same once-per-level reinsert bookkeeping as Insert.
  reinserted_levels_ = 0;
  CondenseTree(std::move(path));

  // Collapse a root that lost all but one subtree.
  while (root_ != kInvalidPage && !meta_[root_].is_leaf &&
         meta_[root_].count == 1) {
    PageId old_root = root_;
    root_ = static_cast<PageId>(PageSlots(root_).children[0]);
    FreeNode(old_root);
  }
  if (record_count_ == 0 && meta_[root_].is_leaf && meta_[root_].count == 0) {
    FreeNode(root_);
    root_ = kInvalidPage;
  }
  return true;
}

void RTree::InsertEntry(const double* box, int32_t child, int target_level,
                        int reinsert_depth) {
  if (root_ == kInvalidPage) {
    assert(target_level == 0);
    root_ = NewNode(/*is_leaf=*/true, /*level=*/0);
    AddEntry(root_, box, child);
    return;
  }
  std::vector<PageId> path;
  PageId target = ChooseSubtree(box, target_level, &path);
  AddEntry(target, box, child);
  RefreshPathMbbs(path, target);
  if (meta_[target].count > capacity_) {
    OverflowTreatment(target, path, reinsert_depth);
  }
}

void RTree::OverflowTreatment(PageId page, std::vector<PageId>& path,
                              int reinsert_depth) {
  const int level = meta_[page].level;
  assert(level >= 0 && level < 64);
  const uint64_t bit = uint64_t{1} << level;
  if (page != root_ && reinsert_depth < 4 && !(reinserted_levels_ & bit)) {
    reinserted_levels_ |= bit;
    Reinsert(page, path, reinsert_depth);
  } else {
    Split(page, path);
  }
}

void RTree::Reinsert(PageId page, std::vector<PageId>& path,
                     int reinsert_depth) {
  const Slots s = SlotsOf(page);
  const size_t count = meta_[page].count;
  // Sort entries by distance of their centers from the node's center,
  // farthest first, and evict the top kReinsertFraction.
  const BoxRef node_box{Box(page), 1, dim_};
  std::vector<double> distance(count);
  for (size_t e = 0; e < count; ++e) {
    distance[e] = CenterDistanceSquared({s.coords + e, s.stride, dim_}, node_box);
  }
  std::vector<uint32_t> order(count);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return distance[a] > distance[b];
  });
  const size_t evict = std::max<size_t>(
      1, static_cast<size_t>(count * kReinsertFraction));
  // The evicted entries leave the scratch before the reinsertions reuse
  // it.
  std::vector<double> boxes(evict * 2 * dim_);
  std::vector<int32_t> children(evict);
  for (size_t i = 0; i < evict; ++i) {
    for (size_t j = 0; j < 2 * dim_; ++j) {
      boxes[i * 2 * dim_ + j] = s.coords[j * s.stride + order[i]];
    }
    children[i] = s.children[order[i]];
  }
  const int level = meta_[page].level;
  WriteEntries(page, s, order.data() + evict, count - evict);
  RefreshPathMbbs(path, page);
  for (size_t i = 0; i < evict; ++i) {
    InsertEntry(boxes.data() + i * 2 * dim_, children[i], level,
                reinsert_depth + 1);
  }
}

void RTree::ChooseSplit(std::vector<uint32_t>* order, size_t* split_at) const {
  const size_t total = capacity_ + 1;
  const size_t min_fill = min_entries_;
  const size_t k_max = total - 2 * min_fill + 1;
  assert(total >= 2 * min_fill);
  const double* coords = scratch_coords_.data();
  order->resize(total);
  std::iota(order->begin(), order->end(), 0u);
  // Sorts the entries by one corner coordinate. Each sort starts from
  // the order the previous one left, as the entries themselves were
  // sorted in place.
  auto sort_by = [&](size_t axis, int by_hi) {
    const double* key = coords + (by_hi ? dim_ + axis : axis) * total;
    std::sort(order->begin(), order->end(),
              [key](uint32_t a, uint32_t b) { return key[a] < key[b]; });
  };
  std::vector<double> g1(2 * dim_);
  std::vector<double> g2(2 * dim_);
  auto groups = [&](size_t at) {
    Fold(coords, total, dim_, order->data(), at, g1.data());
    Fold(coords, total, dim_, order->data() + at, total - at, g2.data());
  };
  const BoxRef b1{g1.data(), 1, dim_};
  const BoxRef b2{g2.data(), 1, dim_};

  // 1. Choose the split axis: minimal sum of margins over all
  // candidate distributions (both lo- and hi-sorted orders).
  size_t best_axis = 0;
  double best_margin_sum = 1e300;
  for (size_t axis = 0; axis < dim_; ++axis) {
    double margin_sum = 0.0;
    for (int sort_by_hi = 0; sort_by_hi < 2; ++sort_by_hi) {
      sort_by(axis, sort_by_hi);
      for (size_t k = 0; k < k_max; ++k) {
        groups(min_fill + k);
        margin_sum += Margin(b1) + Margin(b2);
      }
    }
    if (margin_sum < best_margin_sum) {
      best_margin_sum = margin_sum;
      best_axis = axis;
    }
  }

  // 2. On the chosen axis, pick the distribution with minimal overlap
  // (ties: minimal total area) across both sort orders.
  size_t best_split = min_fill;
  int best_sort = 0;
  double best_overlap = 1e300;
  double best_area = 1e300;
  for (int sort_by_hi = 0; sort_by_hi < 2; ++sort_by_hi) {
    sort_by(best_axis, sort_by_hi);
    for (size_t k = 0; k < k_max; ++k) {
      groups(min_fill + k);
      double overlap = OverlapArea(b1, b2);
      double area = Area(b1) + Area(b2);
      if (overlap < best_overlap - 1e-18 ||
          (overlap <= best_overlap + 1e-18 && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_split = min_fill + k;
        best_sort = sort_by_hi;
      }
    }
  }
  sort_by(best_axis, best_sort);
  *split_at = best_split;
}

void RTree::Split(PageId page, std::vector<PageId>& path) {
  std::vector<uint32_t> order;
  size_t split_at = 0;
  ChooseSplit(&order, &split_at);
  const bool is_leaf = meta_[page].is_leaf != 0;
  const int level = meta_[page].level;
  const Slots scratch = SlotsOf(page);
  PageId sibling = NewNode(is_leaf, level);
  WriteEntries(page, scratch, order.data(), split_at);
  WriteEntries(sibling, scratch, order.data() + split_at,
               order.size() - split_at);

  if (page == root_) {
    PageId new_root = NewNode(/*is_leaf=*/false, level + 1);
    AddEntry(new_root, Box(page), static_cast<int32_t>(page));
    AddEntry(new_root, Box(sibling), static_cast<int32_t>(sibling));
    root_ = new_root;
    return;
  }
  // Attach the sibling to the parent.
  path.pop_back();
  PageId parent = path.back();
  AddEntry(parent, Box(sibling), static_cast<int32_t>(sibling));
  RefreshPathMbbs(path, parent);
  // Also fix the split node's own entry in the parent.
  SetChildBox(parent, page);
  if (meta_[parent].count > capacity_) {
    // The per-level reinsertion guard (reinserted_levels_) decides
    // whether the parent reinserts or splits.
    OverflowTreatment(parent, path, /*reinsert_depth=*/0);
  }
}

namespace {

// Points packed row-major beside their ids: row i is the point of
// ids[i]. Sort-Tile-Recursive permutes rows and ids together, so a
// slab's sort keys are contiguous and no comparison chases an id into
// the dataset.
struct PackedPoints {
  size_t dim = 0;
  std::vector<double> rows;
  std::vector<int32_t> ids;

  const double* row(size_t i) const { return rows.data() + i * dim; }
};

// A coordinate and the position of its row in the range being sorted.
// Trivially constructible, so the scratch below really starts
// uninitialized.
struct SortKey {
  double key;
  uint32_t pos;
};

bool KeyLess(const SortKey& a, const SortKey& b) { return a.key < b.key; }

// Buffers of SortByAxis for n points, allocated once by the loading
// thread and left uninitialized (every sort writes before it reads).
// The sort of rows [lo, hi) uses the same range of each buffer, so
// slabs tiling in parallel share them without overlap, the workers
// allocate nothing, and a page first faults on the thread sorting it.
struct SortScratch {
  SortScratch(size_t n, size_t dim)
      : keys(new SortKey[n]), rows(new double[n * dim]), ids(new int32_t[n]) {}

  std::unique_ptr<SortKey[]> keys;
  std::unique_ptr<double[]> rows;
  std::unique_ptr<int32_t[]> ids;
};

// Sorts rows [lo, hi) of `pts` by coordinate `axis`. std::sort sees the
// (key, position) pairs in the order it would see the ids, and compares
// keys only, so every comparison has the outcome it has in an id sort
// keyed on the same coordinate: the permutation, ties included, is the
// one that sort produces.
void SortByAxis(PackedPoints* pts, size_t lo, size_t hi, size_t axis,
                SortScratch* s) {
  const size_t n = hi - lo;
  const size_t dim = pts->dim;
  SortKey* keys = s->keys.get() + lo;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = {pts->rows[(lo + i) * dim + axis], static_cast<uint32_t>(i)};
  }
  std::sort(keys, keys + n, KeyLess);
  double* rows = s->rows.get() + lo * dim;
  int32_t* ids = s->ids.get() + lo;
  for (size_t i = 0; i < n; ++i) {
    const size_t from = lo + keys[i].pos;
    std::copy_n(pts->row(from), dim, rows + i * dim);
    ids[i] = pts->ids[from];
  }
  std::copy_n(rows, n * dim, pts->rows.begin() + lo * dim);
  std::copy_n(ids, n, pts->ids.begin() + lo);
}

// Recursive Sort-Tile-Recursive partitioning: tiles rows [lo, hi) of
// `pts` into runs of at most `capacity`, sorting each axis in turn.
// With a pool, the slabs of this level tile in parallel (each on its
// own rows, into its own runs, concatenated in slab order); deeper
// levels run on the slab's thread.
void StrTile(PackedPoints* pts, size_t lo, size_t hi, size_t axis,
             size_t capacity, SortScratch* scratch, ThreadPool* pool,
             std::vector<std::pair<size_t, size_t>>* runs) {
  const size_t n = hi - lo;
  const size_t dims = pts->dim;
  if (n <= capacity) {
    runs->emplace_back(lo, hi);
    return;
  }
  SortByAxis(pts, lo, hi, axis, scratch);
  // Balanced partitioning (sizes differ by at most one) keeps trailing
  // runs from falling far below the fill target.
  auto balanced = [](size_t total, size_t parts, size_t part) {
    return total * part / parts;  // prefix boundary of `part`
  };
  if (axis + 1 == dims) {
    const size_t chunks = (n + capacity - 1) / capacity;
    for (size_t c = 0; c < chunks; ++c) {
      runs->emplace_back(lo + balanced(n, chunks, c),
                         lo + balanced(n, chunks, c + 1));
    }
    return;
  }
  const double pages = std::ceil(static_cast<double>(n) / capacity);
  const size_t slabs = static_cast<size_t>(std::ceil(
      std::pow(pages, 1.0 / static_cast<double>(dims - axis))));
  std::vector<std::vector<std::pair<size_t, size_t>>> slab_runs(
      pool != nullptr ? slabs : 0);
  auto tile_slab = [&](size_t s) {
    const size_t start = lo + balanced(n, slabs, s);
    const size_t stop = lo + balanced(n, slabs, s + 1);
    if (start < stop) {
      StrTile(pts, start, stop, axis + 1, capacity, scratch, nullptr,
              pool != nullptr ? &slab_runs[s] : runs);
    }
  };
  if (pool == nullptr) {
    for (size_t s = 0; s < slabs; ++s) tile_slab(s);
    return;
  }
  pool->ParallelFor(slabs, tile_slab);
  for (const auto& r : slab_runs) runs->insert(runs->end(), r.begin(), r.end());
}

// Tiles every row of `pts` (the scratch lives only for the tiling).
std::vector<std::pair<size_t, size_t>> TileAll(PackedPoints* pts,
                                               size_t capacity,
                                               ThreadPool* pool) {
  std::vector<std::pair<size_t, size_t>> runs;
  SortScratch scratch(pts->ids.size(), pts->dim);
  StrTile(pts, 0, pts->ids.size(), 0, capacity, &scratch, pool, &runs);
  return runs;
}

}  // namespace

RTree RTree::BulkLoad(const Dataset* dataset, DiskManager* disk) {
  std::unique_ptr<ThreadPool> pool = MakeSetupPool(dataset->live_size());
  return BulkLoad(dataset, disk, pool.get());
}

RTree RTree::BulkLoad(const Dataset* dataset, DiskManager* disk,
                      ThreadPool* pool) {
  RTree tree(dataset, disk);
  tree.bulk_loaded_ = true;
  const size_t dim = dataset->dim();
  const size_t cap = tree.capacity_;

  // Only live records are indexed; tombstoned slots stay out of the
  // tree (their ids remain resolvable through the dataset).
  PackedPoints pts;
  pts.dim = dim;
  pts.rows.reserve(dataset->live_size() * dim);
  pts.ids.reserve(dataset->live_size());
  for (size_t i = 0; i < dataset->size(); ++i) {
    const RecordId id = static_cast<RecordId>(i);
    if (dataset->IsLive(id)) {
      const VecView p = dataset->Get(id);
      pts.rows.insert(pts.rows.end(), p.begin(), p.end());
      pts.ids.push_back(id);
    }
  }
  const size_t n = pts.ids.size();
  if (n == 0) return tree;
  std::vector<std::pair<size_t, size_t>> runs = TileAll(&pts, cap, pool);
  // STR packs levels nearly full: twice the leaf count sizes the store
  // once. Unused reserved pages are address space only.
  const size_t pages = 2 * runs.size();
  tree.meta_.reserve(pages);
  tree.boxes_.reserve(pages * 2 * dim);
  tree.coords_.reserve(pages * 2 * dim * cap);
  tree.children_.reserve(pages * cap);

  // Each page is written in place, its box folded in entry order; its
  // center is its sort key one level up. The centers of the level just
  // built are keyed by position in the level: the next level tiles
  // them.
  std::vector<PageId> level_pages;
  PackedPoints centers;
  centers.dim = dim;
  auto finish = [&](PageId page, size_t count, PackedPoints* next) {
    tree.meta_[page].count = static_cast<uint32_t>(count);
    tree.FoldBox(page);
    const double* box = tree.Box(page);
    for (size_t j = 0; j < dim; ++j) {
      next->rows.push_back(0.5 * (box[j] + box[dim + j]));
    }
    next->ids.push_back(static_cast<int32_t>(next->ids.size()));
  };
  for (auto [lo, hi] : runs) {
    const PageId page = tree.NewNode(/*is_leaf=*/true, /*level=*/0);
    const Slots s = tree.PageSlots(page);
    for (size_t i = lo; i < hi; ++i) {
      s.children[i - lo] = pts.ids[i];
      for (size_t j = 0; j < dim; ++j) {
        s.coords[j * cap + i - lo] = pts.row(i)[j];
        s.coords[(dim + j) * cap + i - lo] = pts.row(i)[j];
      }
    }
    finish(page, hi - lo, &centers);
    level_pages.push_back(page);
  }
  tree.record_count_ = n;
  pts = PackedPoints();  // hand its memory back before the upper levels

  // Upper levels: each entry is a child page id and that page's box.
  int level = 1;
  while (level_pages.size() > 1) {
    runs = TileAll(&centers, cap, pool);
    PackedPoints next_centers;
    next_centers.dim = dim;
    std::vector<PageId> next_pages;
    for (auto [lo, hi] : runs) {
      const PageId page = tree.NewNode(/*is_leaf=*/false, level);
      const Slots s = tree.PageSlots(page);
      for (size_t i = lo; i < hi; ++i) {
        const PageId child = level_pages[static_cast<size_t>(centers.ids[i])];
        s.children[i - lo] = static_cast<int32_t>(child);
        const double* box = tree.Box(child);
        for (size_t j = 0; j < 2 * dim; ++j) s.coords[j * cap + i - lo] = box[j];
      }
      finish(page, hi - lo, &next_centers);
      next_pages.push_back(page);
    }
    level_pages = std::move(next_pages);
    centers = std::move(next_centers);
    ++level;
  }
  tree.root_ = level_pages[0];
  return tree;
}

Result<RTree> RTree::Thaw(const FlatRTree& flat, const Dataset* dataset,
                          DiskManager* disk) {
  RTree tree(dataset, disk);
  if (flat.dataset().dim() != dataset->dim() ||
      flat.Capacity() != tree.capacity_) {
    return Status::InvalidArgument(
        "frozen image shape does not match the dataset and page size");
  }
  tree.bulk_loaded_ = true;  // fill invariants are unknown; be lenient
  const size_t n = flat.node_count();
  const size_t dim = tree.dim_;
  const size_t cap = tree.capacity_;
  for (size_t p = 0; p < n; ++p) disk->Allocate();
  tree.meta_.assign(flat.meta(), flat.meta() + n);
  tree.boxes_.assign(flat.boxes(), flat.boxes() + n * 2 * dim);
  tree.coords_.assign(flat.coords(), flat.coords() + n * 2 * dim * cap);
  tree.children_.assign(flat.children(), flat.children() + n * cap);
  tree.Anchor();
  // The pages the root reaches keep their entries; the rest are the
  // slots Delete freed, which Freeze wrote empty. The image is well
  // formed (FlatRTree::FromArena rejects a page reached twice and a
  // record count its leaves do not hold), so `reached` only names the
  // free pages.
  std::vector<bool> reached(n, false);
  std::vector<PageId> stack;
  if (flat.root() != kInvalidPage) {
    reached[flat.root()] = true;
    stack.push_back(flat.root());
  }
  while (!stack.empty()) {
    const NodeView node = tree.PeekNode(stack.back());
    stack.pop_back();
    for (size_t e = 0; !node.is_leaf() && e < node.count(); ++e) {
      reached[node.child(e)] = true;
      stack.push_back(static_cast<PageId>(node.child(e)));
    }
  }
  for (size_t p = 0; p < n; ++p) {
    if (!reached[p]) tree.FreeNode(static_cast<PageId>(p));
  }
  tree.root_ = flat.root();
  tree.record_count_ = flat.size();
  return tree;
}

Status RTree::Validate() const {
  if (root_ == kInvalidPage) {
    return record_count_ == 0
               ? Status::Ok()
               : Status::Internal("records recorded but tree empty");
  }
  size_t seen_records = 0;
  std::vector<PageId> stack = {root_};
  std::vector<bool> visited(node_count(), false);
  std::vector<double> fold(2 * dim_);
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    if (visited[page]) return Status::Internal("node reachable twice");
    visited[page] = true;
    const NodeView node = PeekNode(page);
    if (node.count() > capacity_) {
      return Status::Internal("node over capacity");
    }
    // The min-fill invariant is an insertion-maintenance property; STR
    // bulk loading only guarantees balanced (never near-empty) nodes.
    size_t fill_floor = bulk_loaded_ ? 2 : min_entries_;
    if (page != root_ && node.count() < fill_floor) {
      return Status::Internal("non-root node underfull");
    }
    if (node.is_leaf() != (node.level() == 0)) {
      return Status::Internal("leaf flag inconsistent with level");
    }
    Fold(node.lo(0), capacity_, dim_, nullptr, node.count(), fold.data());
    if (std::memcmp(fold.data(), boxes() + page * 2 * dim_,
                    2 * dim_ * sizeof(double)) != 0) {
      return Status::Internal("page box is not the union of its entries");
    }
    for (size_t e = 0; e < node.count(); ++e) {
      if (node.is_leaf()) {
        ++seen_records;
        const VecView p = dataset_->Get(node.child(e));
        for (size_t j = 0; j < dim_; ++j) {
          if (node.lo(j)[e] != p[j] || node.hi(j)[e] != p[j]) {
            return Status::Internal("leaf MBB does not match record");
          }
        }
        continue;
      }
      const PageId child = static_cast<PageId>(node.child(e));
      if (PeekNode(child).level() != node.level() - 1) {
        return Status::Internal("child level mismatch");
      }
      const double* tight = boxes() + child * 2 * dim_;
      for (size_t j = 0; j < dim_; ++j) {
        if (std::abs(tight[j] - node.lo(j)[e]) > 1e-12 ||
            std::abs(tight[dim_ + j] - node.hi(j)[e]) > 1e-12) {
          return Status::Internal("internal MBB is not tight");
        }
      }
      stack.push_back(child);
    }
  }
  if (seen_records != record_count_) {
    return Status::Internal("record count mismatch");
  }
  return Status::Ok();
}

}  // namespace gir
