#include "gir/cp.h"

#include "geom/convex_hull.h"
#include "geom/hull2d.h"
#include "skyline/bbs.h"

namespace gir {

Phase2Output RunCpPhase2(const FlatRTree& tree, const ScoringFunction& scoring,
                         VecView weights, const TopKResult& topk,
                         GirRegion* region) {
  const Dataset& data = tree.dataset();
  SkylineResult sl = ContinueSkylineFromBrs(tree, scoring, weights, topk);

  // Records that survive the hull filter.
  std::vector<RecordId> kept;
  if (sl.skyline.size() <= data.dim() + 1) {
    // Too few records to form a full-dimensional hull: all are extreme.
    kept = sl.skyline;
  } else {
    std::vector<Vec> pts;
    pts.reserve(sl.skyline.size());
    for (RecordId id : sl.skyline) {
      pts.push_back(scoring.Transform(data.Get(id)));
    }
    if (data.dim() == 2) {
      for (int idx : ConvexHull2D(pts)) kept.push_back(sl.skyline[idx]);
    } else {
      Result<ConvexHull> hull = ConvexHull::Build(pts);
      if (hull.ok()) {
        for (int idx : hull->vertex_indices()) {
          kept.push_back(sl.skyline[idx]);
        }
      } else {
        // Degenerate skyline (e.g. all records on a hyperplane): fall
        // back to SP behaviour — correct, just less pruning.
        kept = sl.skyline;
      }
    }
  }

  const RecordId pk = topk.result.back();
  Vec gk = scoring.Transform(data.Get(pk));
  ConstraintProvenance prov;
  prov.kind = ConstraintProvenance::Kind::kOvertake;
  prov.position = static_cast<int>(topk.result.size()) - 1;
  for (RecordId p : kept) {
    prov.challenger = p;
    region->AddConstraint(Sub(gk, scoring.Transform(data.Get(p))), prov);
  }
  Phase2Output out;
  out.candidates = kept.size();
  out.io = sl.io;
  return out;
}

}  // namespace gir
