#ifndef GIR_GIR_FP_FRONTIER_H_
#define GIR_GIR_FP_FRONTIER_H_

// Step 2 of the Facet Pruning continuations (RunFpNdPhase2 and GIR*'s
// FP variant), shared by both: the walk that resumes BRS's retained
// heap, and the per-leaf group test of an incident star. Internal to
// gir/fpnd.cc and gir/gir_star.cc.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gir/fpnd.h"
#include "topk/brs.h"
#include "topk/tree_kernels.h"

namespace gir {

// Sets mask[i] when box i of a batch of n g-mapped boxes lies above
// some live facet; coordinate j of box i spans lo[j * stride + i] ..
// hi[j * stride + i].
using BoxMarker = std::function<void(const double* lo, const double* hi,
                                     size_t stride, size_t n, uint8_t* mask)>;

// Resumes the search from BRS's retained heap (`topk.pending`) in
// maxscore order. Entries are plain PendingNodes: a node's box is not
// stored but read from its parent's entry in the frozen SoA planes
// (PendingNodeBox) and mapped through g. The heap runs the std heap
// algorithms with PendingNodeLess.
//
// Entries below the star never enter the heap. Each batch — the seeded
// `pending` set, then each expanded node's children, read straight
// from its planes — goes through `mark` (one MarkBoxesAboveFacets call
// per star), and the boxes it leaves unmarked are dropped. This is
// safe: a box below every facet lies in the tangent cone of the hull
// at the apex, inserts only widen that cone, so the pop-time test
// would prune the box too, and a pruned node is never looked at again.
// Pop order is unchanged for distinct keys (the kept entries see the
// same pushes and pops); equal keys may pop in another order.
class FrontierWalker {
 public:
  FrontierWalker(const FlatRTree& tree, const ScoringFunction& scoring,
                 VecView weights, const std::vector<PendingNode>& pending,
                 BoxMarker mark)
      : tree_(tree),
        scoring_(scoring),
        weights_(weights),
        mark_(std::move(mark)) {
    const size_t dim = tree.dataset().dim();
    const size_t n = pending.size();
    raw_.resize(2 * dim * n);
    for (size_t i = 0; i < n; ++i) {
      PendingNodeBox(tree, pending[i], &box_);
      for (size_t j = 0; j < dim; ++j) {
        raw_[j * n + i] = box_.lo[j];
        raw_[(dim + j) * n + i] = box_.hi[j];
      }
    }
    MarkBatch(raw_.data(), raw_.data() + dim * n, n, n);
    heap_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (mask_[i]) heap_.push_back(pending[i]);
    }
    std::make_heap(heap_.begin(), heap_.end(), PendingNodeLess());
  }

  // Pops the node with the highest maxscore; false once none is left.
  bool Pop() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), PendingNodeLess());
    top_ = heap_.back();
    heap_.pop_back();
    PendingNodeBox(tree_, top_, &box_);
    scoring_.TransformInto(box_, &g_box_);
    return true;
  }

  // The popped node: its page, whether it is a leaf (read without
  // charging I/O), and its box mapped through g.
  PageId page() const { return top_.page; }
  bool leaf() const { return tree_.PeekNode(top_.page).is_leaf(); }
  const Mbb& g_box() const { return g_box_; }

  // Pushes the children of the popped internal node that the marker
  // keeps; `node` is what tree.ReadNode(page()) returned.
  void Expand(const FlatRTree::NodeView& node) {
    const size_t count = node.count();
    MarkBatch(node.lo(0), node.hi(0), node.plane_stride(), count);
    ComputeEntryScores(scoring_, node, weights_, &buf_);
    for (size_t i = 0; i < count; ++i) {
      if (!mask_[i]) continue;
      const PageId child = static_cast<PageId>(node.child(i));
      const uint32_t slot = static_cast<uint32_t>(i);
      heap_.push_back(PendingNode{buf_.scores[i], child, top_.page, slot});
      std::push_heap(heap_.begin(), heap_.end(), PendingNodeLess());
    }
  }

 private:
  // Maps n boxes (raw SoA planes, `stride` apart) through g and marks
  // them into mask_.
  void MarkBatch(const double* lo, const double* hi, size_t stride,
                 size_t n) {
    mask_.assign(n, 0);
    if (n == 0) return;
    if (scoring_.IsIdentityTransform()) {
      mark_(lo, hi, stride, n, mask_.data());
      return;
    }
    const size_t dim = tree_.dataset().dim();
    g_planes_.resize(2 * dim * n);
    double* g_lo = g_planes_.data();
    double* g_hi = g_lo + dim * n;
    for (size_t j = 0; j < dim; ++j) {
      scoring_.TransformDimBatch(j, lo + j * stride, n, g_lo + j * n);
      scoring_.TransformDimBatch(j, hi + j * stride, n, g_hi + j * n);
    }
    mark_(g_lo, g_hi, n, n, mask_.data());
  }

  const FlatRTree& tree_;
  const ScoringFunction& scoring_;
  VecView weights_;
  BoxMarker mark_;
  std::vector<PendingNode> heap_;
  PendingNode top_{};
  Mbb box_;
  Mbb g_box_;
  ScoreBuffer buf_;
  std::vector<double> raw_;       // the seeded boxes, SoA
  std::vector<double> g_planes_;  // a batch through g, SoA
  std::vector<uint8_t> mask_;
};

// A leaf's records mapped through g, as SoA planes: coordinate j of
// entry i at base[j * stride + i]. Each value is bitwise
// ScoringFunction::TransformDim of the record's coordinate.
struct GPlanes {
  const double* base = nullptr;
  size_t stride = 0;
};

// A leaf's hi planes hold its records, so a Linear scoring reads them
// in place; otherwise they are mapped into `scratch` with
// TransformDimBatch.
GPlanes LeafGPlanes(const ScoringFunction& scoring,
                    const FlatRTree::NodeView& node, size_t dim,
                    std::vector<double>* scratch);

// FP's insert ladder: the point itself, then up to two joggled copies
// (a joggle moves a degenerate fit off its coincidence). `pool` (null:
// scan every facet) restricts the first attempt only, since a joggled
// copy may leave the box the pool was built for. Returns the Insert
// result of the last attempt made; on failure the star is unchanged.
Result<bool> InsertWithJoggle(IncidentStar& star, VecView g, int id,
                              const std::vector<int>* pool, Rng& rng,
                              Vec* joggled);

// The group test of one star over one leaf (test the pool, then test
// members only for a positive pool). Reset builds the pool of the
// leaf's g-box, Test marks the records that see a pool facet in one
// SoA kernel, and Insert keeps pool and marks current as the star
// changes: the records after the inserted one are tested against the
// new facets only. A record left
// unmarked sees no live facet, so skipping it is exactly Insert's
// `false`; a marked one may have lost its facets since, which Insert
// itself then reports.
class LeafGroupTest {
 public:
  // Starts a leaf whose box through g is `g_box` (kept by reference
  // until the next Reset). Returns false when the pool is empty: the
  // star cannot see any record of the leaf.
  bool Reset(const IncidentStar& star, const Mbb& g_box);

  // Marks which of the leaf's n records see a pool facet.
  void Test(const IncidentStar& star, const GPlanes& planes, size_t n);

  bool Marked(size_t i) const { return mask_[i] != 0; }

  // Inserts record i of the leaf (its point through g is `g`) with the
  // joggle ladder, the first attempt pooled. Returns false when every
  // attempt hit a degenerate fit (star unchanged): the caller adds the
  // record's constraint directly.
  bool Insert(IncidentStar& star, VecView g, int id, size_t i, Rng& rng,
              Vec* joggled);

 private:
  const Mbb* g_box_ = nullptr;
  GPlanes planes_;
  size_t n_ = 0;
  std::vector<int> pool_;
  std::vector<uint8_t> mask_;
};

}  // namespace gir

#endif  // GIR_GIR_FP_FRONTIER_H_
