#include "gir/gir_star.h"

#include <algorithm>

#include "common/rng.h"
#include "geom/convex_hull.h"
#include "geom/hull2d.h"
#include "skyline/bbs.h"
#include "skyline/dominance.h"
#include "topk/tree_kernels.h"

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

template <typename Tree>
Result<Phase2Output> GirStarViaSkyline(const Tree& tree,
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

template <typename Tree>
Result<Phase2Output> GirStarViaFp(const Tree& tree,
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
  auto feed = [&](RecordId id) {
    VecView p_raw = data.Get(id);
    scoring.TransformInto(p_raw, &g);
    for (PerRecord& pr : stars) {
      if (Dominates(data.Get(pr.id), p_raw)) continue;
      bool inserted = pr.star.Insert(g, id).ok();
      for (int attempt = 1; attempt < 3 && !inserted; ++attempt) {
        joggled = g;
        for (double& x : joggled) {
          x += joggle_rng.Uniform(-1e-11, 1e-11) * (1 << attempt);
        }
        inserted = pr.star.Insert(joggled, id).ok();
      }
      if (!inserted) {
        ConstraintProvenance prov;
        prov.kind = ConstraintProvenance::Kind::kOvertake;
        prov.position = pr.position;
        prov.challenger = id;
        pr.direct.push_back(GirConstraint{Sub(pr.g, g), prov});
      }
    }
  };

  for (RecordId id : topk.encountered) feed(id);

  std::vector<PendingNode> heap = topk.pending;
  PendingNodeLess less;
  std::make_heap(heap.begin(), heap.end(), less);
  ScoreBuffer buf;
  Mbb g_box;  // the popped node's box through g, shared by all stars
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), less);
    PendingNode top = std::move(heap.back());
    heap.pop_back();
    scoring.TransformInto(top.mbb, &g_box);
    bool prunable = true;
    for (const PerRecord& pr : stars) {
      if (!pr.star.BoxBelowAllFacets(g_box)) {
        prunable = false;
        break;
      }
    }
    if (prunable) continue;
    decltype(auto) node = tree.ReadNode(top.page);
    const size_t count = NodeEntryCount(node);
    if (NodeIsLeaf(node)) {
      for (size_t i = 0; i < count; ++i) feed(NodeChild(node, i));
    } else {
      ComputeEntryScores(scoring, tree.dataset(), node, weights, &buf);
      for (size_t i = 0; i < count; ++i) {
        PendingNode pn;
        pn.maxscore = buf.scores[i];
        pn.page = static_cast<PageId>(NodeChild(node, i));
        pn.mbb = NodeEntryMbb(node, i);
        heap.push_back(std::move(pn));
        std::push_heap(heap.begin(), heap.end(), less);
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
  }
  out.io = DiskManager::ThreadStats() - before;
  return out;
}

template <typename Tree>
Result<Phase2Output> RunGirStarImpl(const Tree& tree,
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

}  // namespace

Result<Phase2Output> RunGirStarPhase2(const RTree& tree,
                                      const ScoringFunction& scoring,
                                      VecView weights, const TopKResult& topk,
                                      const std::string& method,
                                      GirRegion* region,
                                      const FpOptions& fp_options) {
  return RunGirStarImpl(tree, scoring, weights, topk, method, region,
                        fp_options);
}

Result<Phase2Output> RunGirStarPhase2(const FlatRTree& tree,
                                      const ScoringFunction& scoring,
                                      VecView weights, const TopKResult& topk,
                                      const std::string& method,
                                      GirRegion* region,
                                      const FpOptions& fp_options) {
  return RunGirStarImpl(tree, scoring, weights, topk, method, region,
                        fp_options);
}

}  // namespace gir
