#ifndef GIR_TOPK_TREE_KERNELS_H_
#define GIR_TOPK_TREE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "index/flat_rtree.h"
#include "index/rtree.h"
#include "topk/scoring.h"

namespace gir {

// Uniform node-access shims plus the batched scoring kernel, so the
// BRS/BBS/Phase-2 traversals are written once and instantiated for both
// tree representations: the mutable RTree (the pre-flat scalar path,
// kept as the reference and for freshly built/modified indexes) and the
// frozen FlatRTree (SoA planes, vectorizable kernels).
//
// Bit-identity contract: for the same node, both representations yield
// the same entry order, the same child ids, bitwise-equal boxes, and
// bitwise-equal scores (the batched kernel accumulates dimensions in
// the same order as ScoringFunction::Score/MaxScore), so traversal
// decisions — heap order, pruning, I/O — are identical.

// ----- checked page reads -----

// Charges one page read through DiskManager::ReadPage, so an attached
// fault plan can fail (kUnavailable) or stall it. The fallible
// traversals pair this with PeekNode — together equivalent to
// ReadNode, plus the error path. Works for both tree representations.
template <typename Tree>
inline Status TreeReadPage(const Tree& tree, PageId page) {
  return tree.disk()->ReadPage(page);
}

// Frozen-image overload: FetchPage additionally touches the node's
// mmap'd bytes when the image is arena-backed, so the physical page-in
// happens inside the checked, fault-injectable read — never as a
// silent fault inside a scoring kernel. `resident` (optional) is the
// prefetch hit/miss signal.
inline Status TreeReadPage(const FlatRTree& tree, PageId page,
                           bool* resident = nullptr) {
  return tree.FetchPage(page, resident);
}

// ----- RTreeNode shims -----

inline bool NodeIsLeaf(const RTreeNode& node) { return node.is_leaf; }
inline size_t NodeEntryCount(const RTreeNode& node) {
  return node.entries.size();
}
inline int32_t NodeChild(const RTreeNode& node, size_t e) {
  return node.entries[e].child;
}
inline Mbb NodeEntryMbb(const RTreeNode& node, size_t e) {
  return node.entries[e].mbb;
}
inline void NodeEntryMbbInto(const RTreeNode& node, size_t e, Mbb* out) {
  *out = node.entries[e].mbb;
}
// Returns a view of entry e's top corner; `scratch` is unused here but
// backs the gathered corner in the FlatRTree overload.
inline VecView NodeEntryTopCorner(const RTreeNode& node, size_t e,
                                  Vec* scratch) {
  (void)scratch;
  return node.entries[e].mbb.TopCorner();
}
inline Mbb NodeSelfMbb(const RTree& tree, const RTreeNode& node) {
  return node.ComputeMbb(tree.dataset().dim());
}

// ----- FlatRTree::NodeView shims -----

inline bool NodeIsLeaf(const FlatRTree::NodeView& node) {
  return node.is_leaf();
}
inline size_t NodeEntryCount(const FlatRTree::NodeView& node) {
  return node.count();
}
inline int32_t NodeChild(const FlatRTree::NodeView& node, size_t e) {
  return node.child(e);
}
inline Mbb NodeEntryMbb(const FlatRTree::NodeView& node, size_t e) {
  return node.EntryMbb(e);
}
inline void NodeEntryMbbInto(const FlatRTree::NodeView& node, size_t e,
                             Mbb* out) {
  node.EntryMbbInto(e, out);
}
inline VecView NodeEntryTopCorner(const FlatRTree::NodeView& node, size_t e,
                                  Vec* scratch) {
  node.EntryTopCorner(e, scratch);
  return VecView(*scratch);
}
inline Mbb NodeSelfMbb(const FlatRTree& tree, const FlatRTree::NodeView& node) {
  (void)tree;
  return node.mbb();
}

// ----- batched entry scoring -----

// Reusable per-traversal workspace for the score kernels, so the hot
// loop never reallocates.
struct ScoreBuffer {
  std::vector<double> scores;
  std::vector<double> scratch;
};

// Fills buf->scores with one score per entry: the record score for leaf
// entries (a leaf MBB is its point, so hi == the record), the maxscore
// upper bound for internal entries. Scalar reference path.
void ComputeEntryScores(const ScoringFunction& scoring, const Dataset& data,
                        const RTreeNode& node, VecView weights,
                        ScoreBuffer* buf);

// Same contract over a frozen node, streaming the SoA hi planes: for
// each dimension j, scores[e] += w_j * g_j(hi_j[e]). One tight loop per
// plane, no per-entry virtual calls.
void ComputeEntryScores(const ScoringFunction& scoring, const Dataset& data,
                        const FlatRTree::NodeView& node, VecView weights,
                        ScoreBuffer* buf);

// Workspace of the multi-query scorer: the row-major score matrix plus
// the shared transformed plane and the per-dimension weight gather.
// Reused across nodes and groups, so the steady-state loop never
// allocates.
struct MultiScoreBuffer {
  std::vector<double> scores;   // m rows of node.count() scores each
  std::vector<double> scratch;  // one transformed plane, shared by rows
  std::vector<double> wgather;  // w[r][j] gathered per dimension
};

// Scores one frozen node against a whole query group at once: row r of
// buf->scores receives the same entry scores ComputeEntryScores would
// produce for weight vector weights[r] (bitwise — same per-dimension
// accumulation order, same transform values, plain mul+add on every
// SIMD tier). The amortization over the per-query kernel is structural:
// each dimension plane is transformed once for the whole group instead
// of once per query, and simd::MaxDotPlaneMulti streams the plane
// against all rows with shared loads. Every weights[r] must have
// node-dimensionality size.
void ComputeEntryScoresMulti(const ScoringFunction& scoring,
                             const FlatRTree::NodeView& node,
                             const VecView* weights, size_t m,
                             MultiScoreBuffer* buf);

}  // namespace gir

#endif  // GIR_TOPK_TREE_KERNELS_H_
