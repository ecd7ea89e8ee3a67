#ifndef GIR_GIR_FP_FRONTIER_H_
#define GIR_GIR_FP_FRONTIER_H_

// Step 2 of the Facet Pruning continuations (RunFpNdPhase2 and GIR*'s
// FP variant), shared by both: the walk that resumes BRS's retained
// heap, and the per-leaf group test of an incident star. Internal to
// gir/fpnd.cc and gir/gir_star.cc.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gir/fpnd.h"
#include "topk/brs.h"
#include "topk/tree_kernels.h"

namespace gir {

// Resumes the search from BRS's retained heap (`topk.pending`) in
// maxscore order. Entries are plain data: a node's box is not stored
// but read when the node is popped — from its parent's entry in the
// frozen SoA planes, or, for an entry seeded from `pending`, from that
// PendingNode — and mapped through g. The heap runs the std heap
// algorithms with PendingNodeLess's comparison over the same sequence
// of pushes and pops that a heap of PendingNode copies would see, so
// the pop order, ties included, is the same.
class FrontierWalker {
 public:
  FrontierWalker(const FlatRTree& tree, const ScoringFunction& scoring,
                 VecView weights, const std::vector<PendingNode>& pending)
      : tree_(tree), scoring_(scoring), weights_(weights), pending_(pending) {
    heap_.reserve(pending.size());
    for (size_t i = 0; i < pending.size(); ++i) {
      heap_.push_back(Entry{pending[i].maxscore, pending[i].page,
                            kInvalidPage, static_cast<uint32_t>(i)});
    }
    std::make_heap(heap_.begin(), heap_.end(), Less());
  }

  // Pops the node with the highest maxscore; false once none is left.
  bool Pop() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Less());
    top_ = heap_.back();
    heap_.pop_back();
    if (top_.parent == kInvalidPage) {
      scoring_.TransformInto(pending_[top_.slot].mbb, &g_box_);
    } else {
      tree_.PeekNode(top_.parent).EntryMbbInto(top_.slot, &box_);
      scoring_.TransformInto(box_, &g_box_);
    }
    return true;
  }

  // The popped node: its page, whether it is a leaf (read without
  // charging I/O), and its box mapped through g.
  PageId page() const { return top_.page; }
  bool leaf() const { return tree_.PeekNode(top_.page).is_leaf(); }
  const Mbb& g_box() const { return g_box_; }

  // Pushes the children of the popped internal node; `node` is what
  // tree.ReadNode(page()) returned.
  void Expand(const FlatRTree::NodeView& node) {
    ComputeEntryScores(scoring_, node, weights_, &buf_);
    const size_t count = node.count();
    for (size_t i = 0; i < count; ++i) {
      heap_.push_back(Entry{buf_.scores[i], static_cast<PageId>(node.child(i)),
                            top_.page, static_cast<uint32_t>(i)});
      std::push_heap(heap_.begin(), heap_.end(), Less());
    }
  }

 private:
  struct Entry {
    double maxscore;
    PageId page;
    PageId parent;  // kInvalidPage: seeded from pending_[slot]
    uint32_t slot;  // entry index within `parent`
  };
  struct Less {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.maxscore < b.maxscore;  // PendingNodeLess
    }
  };

  const FlatRTree& tree_;
  const ScoringFunction& scoring_;
  VecView weights_;
  const std::vector<PendingNode>& pending_;
  std::vector<Entry> heap_;
  Entry top_{};
  Mbb box_;
  Mbb g_box_;
  ScoreBuffer buf_;
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
