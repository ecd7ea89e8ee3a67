#include "index/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include "common/thread_pool.h"
#include "index/flat_rtree.h"

namespace gir {

namespace {

// Per-insertion bookkeeping for R* forced reinsertion ("once per level
// per insertion"). Kept out of the class to keep the header lean.
thread_local std::set<int>* t_reinserted_levels = nullptr;

}  // namespace

Mbb RTreeNode::ComputeMbb(size_t dim) const {
  Mbb box = Mbb::EmptyBox(dim);
  for (const RTreeEntry& e : entries) box.ExpandTo(e.mbb);
  return box;
}

RTree::RTree(const Dataset* dataset, DiskManager* disk,
             const RTreeOptions& options)
    : dataset_(dataset), disk_(disk), options_(options) {
  const size_t dim = dataset->dim();
  const size_t header_bytes = 16;
  const size_t entry_bytes = 2 * dim * sizeof(double) + sizeof(int32_t);
  capacity_ = (disk->page_size_bytes() - header_bytes) / entry_bytes;
  assert(capacity_ >= 4 && "page too small for this dimensionality");
  min_entries_ = std::max<size_t>(
      2, static_cast<size_t>(capacity_ * options.min_fill));
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
    assert(page == nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[page].is_leaf = is_leaf;
  nodes_[page].level = level;
  disk_->NoteWrite();
  return page;
}

void RTree::FreeNode(PageId page) {
  nodes_[page].entries.clear();
  free_pages_.insert(
      std::upper_bound(free_pages_.begin(), free_pages_.end(), page), page);
}

size_t RTree::height() const {
  if (root_ == kInvalidPage) return 0;
  return static_cast<size_t>(nodes_[root_].level) + 1;
}

PageId RTree::ChooseSubtree(const Mbb& box, int target_level,
                            std::vector<PageId>* path) const {
  PageId current = root_;
  path->push_back(current);
  while (nodes_[current].level > target_level) {
    const RTreeNode& node = nodes_[current];
    const bool choosing_leaf = node.level == 1 && target_level == 0;
    size_t best = 0;
    double best_primary = 1e300;
    double best_secondary = 1e300;
    double best_area = 1e300;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const RTreeEntry& e = node.entries[i];
      double area = e.mbb.Area();
      double enlargement = e.mbb.Enlargement(box);
      double primary;
      if (choosing_leaf) {
        // R*: minimize overlap enlargement among siblings.
        Mbb enlarged = e.mbb;
        enlarged.ExpandTo(box);
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (size_t j = 0; j < node.entries.size(); ++j) {
          if (j == i) continue;
          overlap_before += e.mbb.OverlapArea(node.entries[j].mbb);
          overlap_after += enlarged.OverlapArea(node.entries[j].mbb);
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
    current = static_cast<PageId>(node.entries[best].child);
    path->push_back(current);
  }
  return current;
}

void RTree::RefreshPathMbbs(const std::vector<PageId>& path, PageId child) {
  // Walk from the deepest ancestor upward, synchronizing the entry that
  // points at `child` (then at its parent, and so on).
  for (size_t i = path.size(); i-- > 0;) {
    if (path[i] == child) continue;
    RTreeNode& parent = nodes_[path[i]];
    Mbb child_box = nodes_[child].ComputeMbb(dataset_->dim());
    for (RTreeEntry& e : parent.entries) {
      if (e.child == static_cast<int32_t>(child)) {
        e.mbb = child_box;
        break;
      }
    }
    child = path[i];
  }
}

void RTree::Insert(RecordId id) {
  std::set<int> reinserted;
  t_reinserted_levels = &reinserted;
  RTreeEntry entry;
  entry.mbb = Mbb::OfPoint(dataset_->Get(id));
  entry.child = id;
  InsertEntry(std::move(entry), /*target_level=*/0, /*reinsert_depth=*/0);
  ++record_count_;
  t_reinserted_levels = nullptr;
}

bool RTree::FindLeaf(PageId page, const Mbb& point, RecordId id,
                     std::vector<PageId>* path) const {
  path->push_back(page);
  const RTreeNode& node = nodes_[page];
  if (node.is_leaf) {
    for (const RTreeEntry& e : node.entries) {
      if (e.child == id) return true;
    }
  } else {
    for (const RTreeEntry& e : node.entries) {
      if (!e.mbb.Intersects(point)) continue;
      if (FindLeaf(static_cast<PageId>(e.child), point, id, path)) return true;
    }
  }
  path->pop_back();
  return false;
}

void RTree::CondenseTree(std::vector<PageId> path) {
  // Walk from the leaf upward. A node that fell below the fill floor is
  // dissolved: its entry is removed from the parent and its surviving
  // entries queue for reinsertion at their original level (Guttman's
  // CondenseTree, with the R* insertion doing the reinsert work).
  struct Orphan {
    RTreeEntry entry;
    int target_level;
  };
  std::vector<Orphan> orphans;
  while (path.size() > 1) {
    PageId page = path.back();
    path.pop_back();
    PageId parent = path.back();
    RTreeNode& node = nodes_[page];
    std::vector<RTreeEntry>& up = nodes_[parent].entries;
    if (node.entries.size() < min_entries_) {
      for (size_t i = 0; i < up.size(); ++i) {
        if (up[i].child == static_cast<int32_t>(page)) {
          up.erase(up.begin() + i);
          break;
        }
      }
      for (RTreeEntry& e : node.entries) {
        orphans.push_back(Orphan{std::move(e), node.level});
      }
      FreeNode(page);
    } else {
      Mbb tight = node.ComputeMbb(dataset_->dim());
      for (RTreeEntry& e : up) {
        if (e.child == static_cast<int32_t>(page)) {
          e.mbb = tight;
          break;
        }
      }
    }
  }
  // Higher-level orphans first: reattaching a subtree before its records
  // keeps ChooseSubtree's target levels reachable.
  std::sort(orphans.begin(), orphans.end(),
            [](const Orphan& a, const Orphan& b) {
              return a.target_level > b.target_level;
            });
  for (Orphan& o : orphans) {
    InsertEntry(std::move(o.entry), o.target_level, /*reinsert_depth=*/0);
  }
}

bool RTree::Contains(RecordId id) const {
  if (root_ == kInvalidPage) return false;
  const Mbb point = Mbb::OfPoint(dataset_->Get(id));
  std::vector<PageId> path;
  return FindLeaf(root_, point, id, &path);
}

bool RTree::Delete(RecordId id) {
  if (root_ == kInvalidPage) return false;
  const Mbb point = Mbb::OfPoint(dataset_->Get(id));
  std::vector<PageId> path;
  if (!FindLeaf(root_, point, id, &path)) return false;

  RTreeNode& leaf = nodes_[path.back()];
  for (size_t i = 0; i < leaf.entries.size(); ++i) {
    if (leaf.entries[i].child == id) {
      leaf.entries.erase(leaf.entries.begin() + i);
      break;
    }
  }
  --record_count_;

  // Orphan reinsertion may overflow nodes; give OverflowTreatment the
  // same once-per-level reinsert bookkeeping as Insert.
  std::set<int> reinserted;
  t_reinserted_levels = &reinserted;
  CondenseTree(std::move(path));
  t_reinserted_levels = nullptr;

  // Collapse a root that lost all but one subtree.
  while (root_ != kInvalidPage && !nodes_[root_].is_leaf &&
         nodes_[root_].entries.size() == 1) {
    PageId old_root = root_;
    root_ = static_cast<PageId>(nodes_[root_].entries[0].child);
    FreeNode(old_root);
  }
  if (record_count_ == 0 && nodes_[root_].is_leaf &&
      nodes_[root_].entries.empty()) {
    FreeNode(root_);
    root_ = kInvalidPage;
  }
  return true;
}

void RTree::InsertEntry(RTreeEntry entry, int target_level,
                        int reinsert_depth) {
  if (root_ == kInvalidPage) {
    assert(target_level == 0);
    root_ = NewNode(/*is_leaf=*/true, /*level=*/0);
    nodes_[root_].entries.push_back(std::move(entry));
    return;
  }
  std::vector<PageId> path;
  PageId target = ChooseSubtree(entry.mbb, target_level, &path);
  nodes_[target].entries.push_back(std::move(entry));
  RefreshPathMbbs(path, target);
  if (nodes_[target].entries.size() > capacity_) {
    OverflowTreatment(target, path, reinsert_depth);
  }
}

void RTree::OverflowTreatment(PageId page, std::vector<PageId>& path,
                              int reinsert_depth) {
  int level = nodes_[page].level;
  if (page != root_ && reinsert_depth < 4 && t_reinserted_levels != nullptr &&
      t_reinserted_levels->insert(level).second) {
    Reinsert(page, path, reinsert_depth);
  } else {
    Split(page, path);
  }
}

void RTree::Reinsert(PageId page, std::vector<PageId>& path,
                     int reinsert_depth) {
  RTreeNode& node = nodes_[page];
  const size_t dim = dataset_->dim();
  Mbb node_box = node.ComputeMbb(dim);
  // Sort entries by distance of their centers from the node's center,
  // farthest first, and evict the top `reinsert_fraction`.
  std::sort(node.entries.begin(), node.entries.end(),
            [&](const RTreeEntry& a, const RTreeEntry& b) {
              return a.mbb.CenterDistanceSquared(node_box) >
                     b.mbb.CenterDistanceSquared(node_box);
            });
  size_t evict =
      std::max<size_t>(1, static_cast<size_t>(node.entries.size() *
                                              options_.reinsert_fraction));
  std::vector<RTreeEntry> evicted(node.entries.begin(),
                                  node.entries.begin() + evict);
  node.entries.erase(node.entries.begin(), node.entries.begin() + evict);
  int level = node.level;
  RefreshPathMbbs(path, page);
  for (RTreeEntry& e : evicted) {
    InsertEntry(std::move(e), level, reinsert_depth + 1);
  }
}

void RTree::ChooseSplit(std::vector<RTreeEntry>& entries, size_t dim,
                        size_t min_fill, std::vector<RTreeEntry>* left,
                        std::vector<RTreeEntry>* right) {
  const size_t total = entries.size();
  const size_t k_max = total - 2 * min_fill + 1;
  assert(total >= 2 * min_fill);

  // 1. Choose the split axis: minimal sum of margins over all
  // candidate distributions (both lo- and hi-sorted orders).
  size_t best_axis = 0;
  double best_margin_sum = 1e300;
  for (size_t axis = 0; axis < dim; ++axis) {
    double margin_sum = 0.0;
    for (int sort_by_hi = 0; sort_by_hi < 2; ++sort_by_hi) {
      std::sort(entries.begin(), entries.end(),
                [&](const RTreeEntry& a, const RTreeEntry& b) {
                  return sort_by_hi ? a.mbb.hi[axis] < b.mbb.hi[axis]
                                    : a.mbb.lo[axis] < b.mbb.lo[axis];
                });
      for (size_t k = 0; k < k_max; ++k) {
        size_t split_at = min_fill + k;
        Mbb g1 = Mbb::EmptyBox(dim);
        Mbb g2 = Mbb::EmptyBox(dim);
        for (size_t i = 0; i < split_at; ++i) g1.ExpandTo(entries[i].mbb);
        for (size_t i = split_at; i < total; ++i) g2.ExpandTo(entries[i].mbb);
        margin_sum += g1.Margin() + g2.Margin();
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
    std::sort(entries.begin(), entries.end(),
              [&](const RTreeEntry& a, const RTreeEntry& b) {
                return sort_by_hi ? a.mbb.hi[best_axis] < b.mbb.hi[best_axis]
                                  : a.mbb.lo[best_axis] < b.mbb.lo[best_axis];
              });
    for (size_t k = 0; k < k_max; ++k) {
      size_t split_at = min_fill + k;
      Mbb g1 = Mbb::EmptyBox(dim);
      Mbb g2 = Mbb::EmptyBox(dim);
      for (size_t i = 0; i < split_at; ++i) g1.ExpandTo(entries[i].mbb);
      for (size_t i = split_at; i < total; ++i) g2.ExpandTo(entries[i].mbb);
      double overlap = g1.OverlapArea(g2);
      double area = g1.Area() + g2.Area();
      if (overlap < best_overlap - 1e-18 ||
          (overlap <= best_overlap + 1e-18 && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_split = split_at;
        best_sort = sort_by_hi;
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [&](const RTreeEntry& a, const RTreeEntry& b) {
              return best_sort ? a.mbb.hi[best_axis] < b.mbb.hi[best_axis]
                               : a.mbb.lo[best_axis] < b.mbb.lo[best_axis];
            });
  left->assign(entries.begin(), entries.begin() + best_split);
  right->assign(entries.begin() + best_split, entries.end());
}

void RTree::Split(PageId page, std::vector<PageId>& path) {
  RTreeNode& node = nodes_[page];
  const size_t dim = dataset_->dim();
  std::vector<RTreeEntry> left;
  std::vector<RTreeEntry> right;
  ChooseSplit(node.entries, dim, min_entries_, &left, &right);

  PageId sibling = NewNode(node.is_leaf, node.level);
  // NewNode may reallocate nodes_: refresh the reference.
  RTreeNode& node2 = nodes_[page];
  node2.entries = std::move(left);
  nodes_[sibling].entries = std::move(right);

  if (page == root_) {
    PageId new_root = NewNode(/*is_leaf=*/false, nodes_[page].level + 1);
    RTreeEntry e1;
    e1.mbb = nodes_[page].ComputeMbb(dim);
    e1.child = static_cast<int32_t>(page);
    RTreeEntry e2;
    e2.mbb = nodes_[sibling].ComputeMbb(dim);
    e2.child = static_cast<int32_t>(sibling);
    nodes_[new_root].entries = {std::move(e1), std::move(e2)};
    root_ = new_root;
    return;
  }
  // Attach the sibling to the parent.
  path.pop_back();
  PageId parent = path.back();
  RTreeEntry sibling_entry;
  sibling_entry.mbb = nodes_[sibling].ComputeMbb(dim);
  sibling_entry.child = static_cast<int32_t>(sibling);
  nodes_[parent].entries.push_back(std::move(sibling_entry));
  RefreshPathMbbs(path, parent);
  // Also fix the split node's own entry in the parent.
  Mbb self_box = nodes_[page].ComputeMbb(dim);
  for (RTreeEntry& e : nodes_[parent].entries) {
    if (e.child == static_cast<int32_t>(page)) {
      e.mbb = self_box;
      break;
    }
  }
  if (nodes_[parent].entries.size() > capacity_) {
    // The per-level reinsertion guard (t_reinserted_levels) decides
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

RTree RTree::BulkLoad(const Dataset* dataset, DiskManager* disk,
                      const RTreeOptions& options) {
  std::unique_ptr<ThreadPool> pool = MakeSetupPool(dataset->live_size());
  return BulkLoad(dataset, disk, options, pool.get());
}

RTree RTree::BulkLoad(const Dataset* dataset, DiskManager* disk,
                      const RTreeOptions& options, ThreadPool* pool) {
  RTree tree(dataset, disk, options);
  tree.bulk_loaded_ = true;
  const size_t dim = dataset->dim();

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
  std::vector<std::pair<size_t, size_t>> runs =
      TileAll(&pts, tree.capacity_, pool);

  // Leaves, built on the calling thread: every entry's Mbb is allocated
  // here, so the master tree's heap does not spread over the workers'
  // malloc arenas. A node's box (kept for its parent's entry) and
  // center (its sort key one level up) are folded in entry order, as
  // RTreeNode::ComputeMbb folds them.
  std::vector<PageId> level_pages;
  std::vector<Mbb> level_boxes;
  auto add_center = [](const Mbb& box, PackedPoints* centers) {
    const Vec center = box.Center();
    centers->rows.insert(centers->rows.end(), center.begin(), center.end());
    centers->ids.push_back(static_cast<int32_t>(centers->ids.size()));
  };
  // The centers of the level just built, each keyed by its position in
  // the level: the next level tiles them.
  PackedPoints centers;
  centers.dim = dim;
  for (auto [lo, hi] : runs) {
    PageId page = tree.NewNode(/*is_leaf=*/true, /*level=*/0);
    RTreeNode& node = tree.nodes_[page];
    node.entries.resize(hi - lo);
    Mbb box = Mbb::EmptyBox(dim);
    for (size_t i = lo; i < hi; ++i) {
      RTreeEntry& e = node.entries[i - lo];
      e.mbb.lo.assign(pts.row(i), pts.row(i) + dim);
      e.mbb.hi = e.mbb.lo;
      e.child = pts.ids[i];
      box.ExpandTo(VecView(pts.row(i), dim));
    }
    add_center(box, &centers);
    level_pages.push_back(page);
    level_boxes.push_back(std::move(box));
  }
  tree.record_count_ = n;
  pts = PackedPoints();  // hand its memory back before the upper levels

  // Upper levels.
  int level = 1;
  while (level_pages.size() > 1) {
    runs = TileAll(&centers, tree.capacity_, pool);
    PackedPoints next_centers;
    next_centers.dim = dim;
    std::vector<PageId> next_pages;
    std::vector<Mbb> next_boxes;
    for (auto [lo, hi] : runs) {
      PageId page = tree.NewNode(/*is_leaf=*/false, level);
      RTreeNode& node = tree.nodes_[page];
      node.entries.resize(hi - lo);
      Mbb box = Mbb::EmptyBox(dim);
      for (size_t i = lo; i < hi; ++i) {
        const size_t child = static_cast<size_t>(centers.ids[i]);
        RTreeEntry& e = node.entries[i - lo];
        e.mbb = level_boxes[child];
        e.child = static_cast<int32_t>(level_pages[child]);
        box.ExpandTo(e.mbb);
      }
      add_center(box, &next_centers);
      next_pages.push_back(page);
      next_boxes.push_back(std::move(box));
    }
    level_pages = std::move(next_pages);
    level_boxes = std::move(next_boxes);
    centers = std::move(next_centers);
    ++level;
  }
  tree.root_ = level_pages[0];
  return tree;
}

Result<RTree> RTree::Thaw(const FlatRTree& flat, const Dataset* dataset,
                         DiskManager* disk) {
  RTree tree(dataset, disk, RTreeOptions{});
  if (flat.dataset().dim() != dataset->dim() ||
      flat.Capacity() != tree.capacity_) {
    return Status::InvalidArgument(
        "frozen image shape does not match the dataset and page size");
  }
  tree.bulk_loaded_ = true;  // fill invariants are unknown; be lenient
  const size_t n = flat.node_count();
  const size_t dim = dataset->dim();
  tree.nodes_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    disk->Allocate();
    const FlatRTree::NodeView view = flat.PeekNode(static_cast<PageId>(p));
    tree.nodes_[p].is_leaf = view.is_leaf();
    tree.nodes_[p].level = view.level();
  }
  // Entries are copied for the pages the root reaches; the rest are the
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
    const PageId page = stack.back();
    stack.pop_back();
    const FlatRTree::NodeView view = flat.PeekNode(page);
    RTreeNode& node = tree.nodes_[page];
    node.entries.resize(view.count());
    for (size_t e = 0; e < view.count(); ++e) {
      RTreeEntry& entry = node.entries[e];
      entry.child = view.child(e);
      entry.mbb.lo.resize(dim);
      entry.mbb.hi.resize(dim);
      for (size_t j = 0; j < dim; ++j) {
        entry.mbb.lo[j] = view.lo(j)[e];
        entry.mbb.hi[j] = view.hi(j)[e];
      }
      if (!view.is_leaf()) {
        reached[entry.child] = true;
        stack.push_back(static_cast<PageId>(entry.child));
      }
    }
  }
  for (size_t p = 0; p < n; ++p) {
    if (!reached[p]) tree.free_pages_.push_back(static_cast<PageId>(p));
  }
  tree.root_ = flat.root();
  tree.record_count_ = flat.size();
  return tree;
}

std::vector<RecordId> RTree::RangeQuery(const Mbb& box) const {
  std::vector<RecordId> out;
  if (root_ == kInvalidPage) return out;
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    const RTreeNode& node = nodes_[page];
    for (const RTreeEntry& e : node.entries) {
      if (!box.Intersects(e.mbb)) continue;
      if (node.is_leaf) {
        out.push_back(e.child);
      } else {
        stack.push_back(static_cast<PageId>(e.child));
      }
    }
  }
  return out;
}

Status RTree::Validate() const {
  if (root_ == kInvalidPage) {
    return record_count_ == 0
               ? Status::Ok()
               : Status::Internal("records recorded but tree empty");
  }
  const size_t dim = dataset_->dim();
  size_t seen_records = 0;
  std::vector<PageId> stack = {root_};
  std::set<PageId> visited;
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    if (!visited.insert(page).second) {
      return Status::Internal("node reachable twice");
    }
    const RTreeNode& node = nodes_[page];
    if (node.entries.size() > capacity_) {
      return Status::Internal("node over capacity");
    }
    // The min-fill invariant is an insertion-maintenance property; STR
    // bulk loading only guarantees balanced (never near-empty) nodes.
    size_t fill_floor = bulk_loaded_ ? 2 : min_entries_;
    if (page != root_ && node.entries.size() < fill_floor) {
      return Status::Internal("non-root node underfull");
    }
    if (node.is_leaf != (node.level == 0)) {
      return Status::Internal("leaf flag inconsistent with level");
    }
    for (const RTreeEntry& e : node.entries) {
      if (node.is_leaf) {
        ++seen_records;
        Mbb expected = Mbb::OfPoint(dataset_->Get(e.child));
        if (LInfDistance(expected.lo, e.mbb.lo) > 0 ||
            LInfDistance(expected.hi, e.mbb.hi) > 0) {
          return Status::Internal("leaf MBB does not match record");
        }
      } else {
        const RTreeNode& child = nodes_[e.child];
        if (child.level != node.level - 1) {
          return Status::Internal("child level mismatch");
        }
        Mbb expected = child.ComputeMbb(dim);
        if (LInfDistance(expected.lo, e.mbb.lo) > 1e-12 ||
            LInfDistance(expected.hi, e.mbb.hi) > 1e-12) {
          return Status::Internal("internal MBB is not tight");
        }
        stack.push_back(static_cast<PageId>(e.child));
      }
    }
  }
  if (seen_records != record_count_) {
    return Status::Internal("record count mismatch");
  }
  return Status::Ok();
}

}  // namespace gir
