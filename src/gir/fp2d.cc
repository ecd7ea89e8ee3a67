#include "gir/fp2d.h"

#include <algorithm>
#include <cmath>

#include "skyline/dominance.h"
#include "topk/tree_kernels.h"

namespace gir {

namespace {

double Cross(VecView a, VecView b) { return a[0] * b[1] - a[1] * b[0]; }

// State of the two interim facets. Directions are measured from the
// sweeping-line direction u = rot90(q); every candidate record lies in
// the half-plane strictly below the sweeping line, so its direction
// angle psi(v) ranges over (0, pi) and the min/max records bound the
// anticlockwise/clockwise rotations respectively.
struct Facets2D {
  // Direction vectors (p - p_k) of the current bounding records, and
  // the record ids (-1 while the bound is still the axis-projection
  // dummy, whose constraint is implied by q' >= 0).
  Vec dir_anti;
  RecordId rec_anti = -1;
  Vec dir_clock;
  RecordId rec_clock = -1;

  // True when v = p - p_k rotates before the current anticlockwise
  // bound (i.e. psi(v) < psi(dir_anti)).
  bool BeatsAnti(VecView v) const { return Cross(dir_anti, v) < 0.0; }
  bool BeatsClock(VecView v) const { return Cross(dir_clock, v) > 0.0; }

  void Update(VecView v, RecordId id) {
    if (BeatsAnti(v)) {
      dir_anti.assign(v.begin(), v.end());
      rec_anti = id;
    }
    if (BeatsClock(v)) {
      dir_clock.assign(v.begin(), v.end());
      rec_clock = id;
    }
  }
};

}  // namespace

Result<Phase2Output> RunFp2dPhase2(const FlatRTree& tree,
                                   const ScoringFunction& scoring,
                                   VecView weights, const TopKResult& topk,
                                   GirRegion* region) {
  const Dataset& data = tree.dataset();
  if (data.dim() != 2) {
    return Status::InvalidArgument("FP-2D requires d == 2");
  }
  if (topk.result.empty()) {
    return Status::InvalidArgument("empty top-k result");
  }
  IoStats before = DiskManager::ThreadStats();
  const RecordId pk = topk.result.back();
  VecView pk_raw = data.Get(pk);
  Vec gk = scoring.Transform(pk_raw);

  // Initial facets: the projections of p_k onto the axes (paper §6.2),
  // i.e. rotation all the way to the axis directions.
  Facets2D facets;
  facets.dir_anti = {-std::max(gk[0], 0.5), 0.0};
  facets.dir_clock = {0.0, -std::max(gk[1], 0.5)};

  // Step 1: angular scan of the encountered set T.
  for (RecordId id : topk.encountered) {
    VecView p = data.Get(id);
    if (Dominates(pk_raw, p)) continue;
    Vec v = Sub(scoring.Transform(p), gk);
    if (v[0] == 0.0 && v[1] == 0.0) continue;  // duplicate of p_k
    facets.Update(v, id);
  }

  // Step 2: refine from disk via the retained BRS heap.
  std::vector<PendingNode> heap = topk.pending;
  PendingNodeLess less;
  std::make_heap(heap.begin(), heap.end(), less);
  auto box_can_update = [&](const Mbb& box) {
    // Check the four transformed corners; the transformed box is still
    // a box (monotone per-dimension transform), so corners are extreme.
    double gx[2] = {scoring.TransformDim(0, box.lo[0]),
                    scoring.TransformDim(0, box.hi[0])};
    double gy[2] = {scoring.TransformDim(1, box.lo[1]),
                    scoring.TransformDim(1, box.hi[1])};
    for (int ix = 0; ix < 2; ++ix) {
      for (int iy = 0; iy < 2; ++iy) {
        Vec v = {gx[ix] - gk[0], gy[iy] - gk[1]};
        if (facets.BeatsAnti(v) || facets.BeatsClock(v)) return true;
      }
    }
    return false;
  };
  ScoreBuffer buf;
  Mbb box;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), less);
    const PendingNode top = heap.back();
    heap.pop_back();
    PendingNodeBox(tree, top, &box);
    if (!box_can_update(box)) continue;  // below both interim facets
    FlatRTree::NodeView node = tree.ReadNode(top.page);
    const size_t count = node.count();
    if (node.is_leaf()) {
      for (size_t i = 0; i < count; ++i) {
        const RecordId id = node.child(i);
        VecView p = data.Get(id);
        if (Dominates(pk_raw, p)) continue;
        Vec v = Sub(scoring.Transform(p), gk);
        if (v[0] == 0.0 && v[1] == 0.0) continue;
        facets.Update(v, id);
      }
    } else {
      ComputeEntryScores(scoring, node, weights, &buf);
      for (size_t i = 0; i < count; ++i) {
        const PageId child = static_cast<PageId>(node.child(i));
        const uint32_t slot = static_cast<uint32_t>(i);
        heap.push_back(PendingNode{buf.scores[i], child, top.page, slot});
        std::push_heap(heap.begin(), heap.end(), less);
      }
    }
  }

  // Emit the (up to two) critical half-spaces.
  Phase2Output out;
  ConstraintProvenance prov;
  prov.kind = ConstraintProvenance::Kind::kOvertake;
  prov.position = static_cast<int>(topk.result.size()) - 1;
  for (RecordId id : {facets.rec_anti, facets.rec_clock}) {
    if (id < 0) continue;  // axis dummy: implied by the cube
    prov.challenger = id;
    region->AddConstraint(Sub(gk, scoring.Transform(data.Get(id))), prov);
    ++out.candidates;
  }
  out.io = DiskManager::ThreadStats() - before;
  return out;
}

}  // namespace gir
