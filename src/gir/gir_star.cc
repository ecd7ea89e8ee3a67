#include "gir/gir_star.h"

#include <algorithm>

#include "common/rng.h"
#include "geom/convex_hull.h"
#include "geom/hull2d.h"
#include "gir/fp_frontier.h"
#include "skyline/bbs.h"
#include "skyline/dominance.h"

namespace gir {

std::vector<RecordId> PruneResultForGirStar(const Dataset& data,
                                            const ScoringFunction& scoring,
                                            const std::vector<RecordId>& r) {
  const size_t k = r.size();
  std::vector<bool> keep(k, true);
  // (ii) Drop result records that dominate another result record: any
  // challenger must overtake the dominated one first.
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k && keep[i]; ++j) {
      if (i == j) continue;
      if (Dominates(data.Get(r[i]), data.Get(r[j]))) keep[i] = false;
    }
  }
  // (i) Drop result records strictly inside the hull of the transformed
  // result: some hull record always scores no higher.
  if (k > data.dim() + 1) {
    std::vector<Vec> pts;
    pts.reserve(k);
    for (RecordId id : r) pts.push_back(scoring.Transform(data.Get(id)));
    std::vector<bool> on_hull(k, false);
    bool hull_ok = false;
    if (data.dim() == 2) {
      for (int idx : ConvexHull2D(pts)) on_hull[idx] = true;
      hull_ok = true;
    } else {
      Result<ConvexHull> hull = ConvexHull::Build(pts);
      if (hull.ok()) {
        for (int idx : hull->vertex_indices()) on_hull[idx] = true;
        hull_ok = true;
      }
    }
    if (hull_ok) {
      for (size_t i = 0; i < k; ++i) {
        if (!on_hull[i]) keep[i] = false;
      }
    }
  }
  std::vector<RecordId> out;
  for (size_t i = 0; i < k; ++i) {
    if (keep[i]) out.push_back(r[i]);
  }
  // Safety: R- is never empty (a maximal record of R dominates nobody
  // that dominates it, and lies on the hull); guard numerics anyway.
  if (out.empty()) out = r;
  return out;
}

namespace {

// Positions (indices into topk.result) of the pruned result set.
std::vector<int> PositionsOf(const std::vector<RecordId>& result,
                             const std::vector<RecordId>& pruned) {
  std::vector<int> out;
  for (RecordId id : pruned) {
    auto it = std::find(result.begin(), result.end(), id);
    out.push_back(static_cast<int>(it - result.begin()));
  }
  return out;
}

Result<Phase2Output> GirStarViaSkyline(const FlatRTree& tree,
                                       const ScoringFunction& scoring,
                                       VecView weights,
                                       const TopKResult& topk,
                                       bool hull_filter, GirRegion* region) {
  const Dataset& data = tree.dataset();
  std::vector<RecordId> rminus =
      PruneResultForGirStar(data, scoring, topk.result);
  std::vector<int> positions = PositionsOf(topk.result, rminus);
  SkylineResult sl = ContinueSkylineFromBrs(tree, scoring, weights, topk);

  std::vector<RecordId> candidates = sl.skyline;
  if (hull_filter && candidates.size() > data.dim() + 1) {
    std::vector<Vec> pts;
    for (RecordId id : candidates) {
      pts.push_back(scoring.Transform(data.Get(id)));
    }
    std::vector<RecordId> kept;
    if (data.dim() == 2) {
      for (int idx : ConvexHull2D(pts)) kept.push_back(candidates[idx]);
    } else {
      Result<ConvexHull> hull = ConvexHull::Build(pts);
      if (hull.ok()) {
        for (int idx : hull->vertex_indices()) {
          kept.push_back(candidates[idx]);
        }
      } else {
        kept = candidates;
      }
    }
    candidates = std::move(kept);
  }

  for (size_t ri = 0; ri < rminus.size(); ++ri) {
    Vec gi = scoring.Transform(data.Get(rminus[ri]));
    ConstraintProvenance prov;
    prov.kind = ConstraintProvenance::Kind::kOvertake;
    prov.position = positions[ri];
    for (RecordId p : candidates) {
      prov.challenger = p;
      region->AddConstraint(Sub(gi, scoring.Transform(data.Get(p))), prov);
    }
  }
  Phase2Output out;
  out.candidates = candidates.size();
  out.io = sl.io;
  return out;
}

Result<Phase2Output> GirStarViaFp(const FlatRTree& tree,
                                  const ScoringFunction& scoring,
                                  VecView weights, const TopKResult& topk,
                                  GirRegion* region,
                                  const FpOptions& options) {
  const Dataset& data = tree.dataset();
  IoStats before = DiskManager::ThreadStats();
  std::vector<RecordId> rminus =
      PruneResultForGirStar(data, scoring, topk.result);
  std::vector<int> positions = PositionsOf(topk.result, rminus);
  Rng joggle_rng(0xFACE8);

  struct PerRecord {
    RecordId id;
    int position;
    Vec g;
    IncidentStar star;
    std::vector<GirConstraint> direct;  // fit-failure fallbacks
  };
  std::vector<PerRecord> stars;
  for (size_t ri = 0; ri < rminus.size(); ++ri) {
    Vec g = scoring.Transform(data.Get(rminus[ri]));
    stars.push_back(PerRecord{rminus[ri], positions[ri], g,
                              IncidentStar(g, options.eps),
                              {}});
  }

  Vec g;        // g(p), shared across all stars
  Vec joggled;  // joggle-retry copy of g
  auto add_direct = [&](PerRecord& pr, RecordId id) {
    ConstraintProvenance prov;
    prov.kind = ConstraintProvenance::Kind::kOvertake;
    prov.position = pr.position;
    prov.challenger = id;
    pr.direct.push_back(GirConstraint{Sub(pr.g, g), prov});
  };
  for (RecordId id : topk.encountered) {
    VecView p_raw = data.Get(id);
    scoring.TransformInto(p_raw, &g);
    for (PerRecord& pr : stars) {
      if (Dominates(data.Get(pr.id), p_raw)) continue;
      if (!InsertWithJoggle(pr.star, g, id, nullptr, joggle_rng, &joggled)
               .ok()) {
        add_direct(pr, id);
      }
    }
  }

  // Step 2: one walk for all stars, which share the popped node's
  // g-box. A node is pruned when it lies below every star (and enters
  // the walk only when it lies above some star); a read leaf is
  // group-tested per star, and a star whose pool is empty skips it.
  auto mark = [&stars](const double* lo, const double* hi, size_t stride,
                       size_t n, uint8_t* mask) {
    for (const PerRecord& pr : stars) {
      pr.star.MarkBoxesAbove(lo, hi, stride, n, mask);
    }
  };
  FrontierWalker walker(tree, scoring, weights, topk.pending, mark);
  std::vector<LeafGroupTest> groups(stars.size());
  std::vector<double> planes;  // a leaf's records through g, SoA
  while (walker.Pop()) {
    const Mbb& g_box = walker.g_box();
    if (!walker.leaf()) {
      bool prunable = true;
      for (const PerRecord& pr : stars) {
        if (!pr.star.BoxBelowAllFacets(g_box)) {
          prunable = false;
          break;
        }
      }
      if (!prunable) walker.Expand(tree.ReadNode(walker.page()));
      continue;
    }
    bool prunable = true;
    for (size_t s = 0; s < stars.size(); ++s) {
      if (groups[s].Reset(stars[s].star, g_box)) prunable = false;
    }
    if (prunable) continue;
    FlatRTree::NodeView node = tree.ReadNode(walker.page());
    const size_t count = node.count();
    const GPlanes gp = LeafGPlanes(scoring, node, data.dim(), &planes);
    for (size_t s = 0; s < stars.size(); ++s) {
      groups[s].Test(stars[s].star, gp, count);
    }
    for (size_t i = 0; i < count; ++i) {
      const RecordId id = node.child(i);
      VecView p_raw = data.Get(id);
      bool mapped = false;
      for (size_t s = 0; s < stars.size(); ++s) {
        PerRecord& pr = stars[s];
        if (!groups[s].Marked(i) || Dominates(data.Get(pr.id), p_raw)) {
          continue;
        }
        if (!mapped) {
          scoring.TransformInto(p_raw, &g);
          mapped = true;
        }
        if (!groups[s].Insert(pr.star, g, id, i, joggle_rng, &joggled)) {
          add_direct(pr, id);
        }
      }
    }
  }

  Phase2Output out;
  for (PerRecord& pr : stars) {
    ConstraintProvenance prov;
    prov.kind = ConstraintProvenance::Kind::kOvertake;
    prov.position = pr.position;
    for (int id : pr.star.CriticalRecordIds()) {
      prov.challenger = id;
      scoring.TransformInto(data.Get(static_cast<RecordId>(id)), &g);
      region->AddConstraint(Sub(pr.g, g), prov);
      ++out.candidates;
    }
    for (GirConstraint& c : pr.direct) {
      region->AddConstraint(std::move(c.normal), c.provenance);
      ++out.candidates;
    }
    out.star_facets_created += pr.star.facets_created();
  }
  out.io = DiskManager::ThreadStats() - before;
  return out;
}

}  // namespace

Result<Phase2Output> RunGirStarPhase2(const FlatRTree& tree,
                                      const ScoringFunction& scoring,
                                      VecView weights, const TopKResult& topk,
                                      const std::string& method,
                                      GirRegion* region,
                                      const FpOptions& fp_options) {
  if (topk.result.empty()) {
    return Status::InvalidArgument("empty top-k result");
  }
  if (method == "SP") {
    return GirStarViaSkyline(tree, scoring, weights, topk,
                             /*hull_filter=*/false, region);
  }
  if (method == "CP") {
    return GirStarViaSkyline(tree, scoring, weights, topk,
                             /*hull_filter=*/true, region);
  }
  if (method == "FP") {
    return GirStarViaFp(tree, scoring, weights, topk, region, fp_options);
  }
  return Status::InvalidArgument("unknown GIR* method: " + method);
}

}  // namespace gir
