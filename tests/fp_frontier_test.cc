// FP's step 2 with the push-time box test against the pop-time walk it
// replaced, and FP's one-pass max-coordinate seeding against the
// d-pass loop it replaced. Both references are kept here, verbatim in
// behaviour, as oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dataset/generators.h"
#include "geom/halfspace_intersection.h"
#include "gir/fp_frontier.h"
#include "gir/fpnd.h"
#include "gir/gir_star.h"
#include "gir/phase1.h"
#include "index/rtree.h"
#include "skyline/dominance.h"
#include "topk/brs.h"

namespace gir {
namespace {

// ----- the references -----

// The d-pass seeding loop: for each dimension, a scan of T for the
// largest untaken coordinate (first position on ties).
std::vector<size_t> DPassSeeds(const Dataset& data,
                               const std::vector<RecordId>& t) {
  std::vector<size_t> seeds;
  std::vector<bool> taken(t.size(), false);
  for (size_t j = 0; j < data.dim(); ++j) {
    int best = -1;
    double best_val = -1e300;
    for (size_t i = 0; i < t.size(); ++i) {
      if (taken[i]) continue;
      const double v = data.Get(t[i])[j];
      if (v > best_val) {
        best_val = v;
        best = static_cast<int>(i);
      }
    }
    if (best >= 0) {
      taken[best] = true;
      seeds.push_back(static_cast<size_t>(best));
    }
  }
  return seeds;
}

// The pop-time walker: every child enters the heap, and a node's box
// is tested only when it is popped. Same interface as FrontierWalker;
// the marker is ignored.
class PopTimeWalker {
 public:
  PopTimeWalker(const FlatRTree& tree, const ScoringFunction& scoring,
                VecView weights, const std::vector<PendingNode>& pending,
                const BoxMarker&)
      : tree_(tree), scoring_(scoring), weights_(weights), heap_(pending) {
    std::make_heap(heap_.begin(), heap_.end(), PendingNodeLess());
  }

  bool Pop() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), PendingNodeLess());
    top_ = heap_.back();
    heap_.pop_back();
    PendingNodeBox(tree_, top_, &box_);
    scoring_.TransformInto(box_, &g_box_);
    return true;
  }
  PageId page() const { return top_.page; }
  bool leaf() const { return tree_.PeekNode(top_.page).is_leaf(); }
  const Mbb& g_box() const { return g_box_; }

  void Expand(const FlatRTree::NodeView& node) {
    ComputeEntryScores(scoring_, node, weights_, &buf_);
    for (size_t i = 0; i < node.count(); ++i) {
      const PageId child = static_cast<PageId>(node.child(i));
      const uint32_t slot = static_cast<uint32_t>(i);
      heap_.push_back(PendingNode{buf_.scores[i], child, top_.page, slot});
      std::push_heap(heap_.begin(), heap_.end(), PendingNodeLess());
    }
  }

 private:
  const FlatRTree& tree_;
  const ScoringFunction& scoring_;
  VecView weights_;
  std::vector<PendingNode> heap_;
  PendingNode top_{};
  Mbb box_;
  Mbb g_box_;
  ScoreBuffer buf_;
};

// One star of a test-local FP run: the star, and the records whose
// constraint was added directly (every joggle failed), in order.
struct StarRun {
  RecordId owner = -1;  // the star's apex record
  std::unique_ptr<IncidentStar> star;
  std::vector<RecordId> direct;
};

// Steps 1 and 2 of Facet Pruning over `owners` (FP: the k-th record;
// GIR*'s FP: one star per pruned result record), driven by Walker.
// Mirrors RunFpNdPhase2 and GirStarViaFp without phase-1 tightening.
// `seeded`: FP's max-coordinate seeding (d-pass reference) of T.
template <typename Walker>
std::vector<StarRun> RunStars(const FlatRTree& tree,
                              const ScoringFunction& scoring, VecView w,
                              const TopKResult& topk,
                              const std::vector<RecordId>& owners,
                              bool seeded, uint64_t joggle_seed) {
  const Dataset& data = tree.dataset();
  std::vector<StarRun> runs;
  for (RecordId owner : owners) {
    StarRun run;
    run.owner = owner;
    run.star = std::make_unique<IncidentStar>(
        scoring.Transform(data.Get(owner)));
    runs.push_back(std::move(run));
  }
  Rng rng(joggle_seed);
  Vec g;
  Vec joggled;
  std::vector<RecordId> order;
  std::vector<size_t> seeds;
  if (seeded) seeds = DPassSeeds(data, topk.encountered);
  for (size_t i : seeds) order.push_back(topk.encountered[i]);
  for (size_t i = 0; i < topk.encountered.size(); ++i) {
    if (std::find(seeds.begin(), seeds.end(), i) == seeds.end()) {
      order.push_back(topk.encountered[i]);
    }
  }
  for (RecordId id : order) {
    for (StarRun& run : runs) {
      if (Dominates(data.Get(run.owner), data.Get(id))) continue;
      scoring.TransformInto(data.Get(id), &g);
      if (!InsertWithJoggle(*run.star, g, id, nullptr, rng, &joggled).ok()) {
        run.direct.push_back(id);
      }
    }
  }
  auto mark = [&runs](const double* lo, const double* hi, size_t stride,
                      size_t n, uint8_t* mask) {
    for (const StarRun& run : runs) {
      run.star->MarkBoxesAbove(lo, hi, stride, n, mask);
    }
  };
  Walker walker(tree, scoring, w, topk.pending, mark);
  std::vector<LeafGroupTest> groups(runs.size());
  std::vector<double> planes;
  while (walker.Pop()) {
    const Mbb& g_box = walker.g_box();
    if (!walker.leaf()) {
      bool prunable = true;
      for (const StarRun& run : runs) {
        prunable = prunable && run.star->BoxBelowAllFacets(g_box);
      }
      if (!prunable) walker.Expand(tree.PeekNode(walker.page()));
      continue;
    }
    bool prunable = true;
    for (size_t s = 0; s < runs.size(); ++s) {
      if (groups[s].Reset(*runs[s].star, g_box)) prunable = false;
    }
    if (prunable) continue;
    FlatRTree::NodeView node = tree.PeekNode(walker.page());
    const GPlanes gp = LeafGPlanes(scoring, node, data.dim(), &planes);
    for (size_t s = 0; s < runs.size(); ++s) {
      groups[s].Test(*runs[s].star, gp, node.count());
    }
    for (size_t i = 0; i < node.count(); ++i) {
      const RecordId id = node.child(i);
      for (size_t s = 0; s < runs.size(); ++s) {
        if (!groups[s].Marked(i) ||
            Dominates(data.Get(runs[s].owner), data.Get(id))) {
          continue;
        }
        scoring.TransformInto(data.Get(id), &g);
        if (!groups[s].Insert(*runs[s].star, g, id, i, rng, &joggled)) {
          runs[s].direct.push_back(id);
        }
      }
    }
  }
  return runs;
}

void ExpectSameStar(const StarRun& want, const StarRun& got,
                    const std::string& where) {
  ASSERT_EQ(got.star->facets_created(), want.star->facets_created()) << where;
  ASSERT_EQ(got.star->CriticalRecordIds(), want.star->CriticalRecordIds())
      << where;
  ASSERT_EQ(got.direct, want.direct) << where;
  const std::vector<IncidentStar::StarFacet> a = want.star->facets();
  const std::vector<IncidentStar::StarFacet> b = got.star->facets();
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t f = 0; f < a.size(); ++f) {
    ASSERT_EQ(a[f].vertices, b[f].vertices) << where << " facet " << f;
    ASSERT_EQ(a[f].neighbors, b[f].neighbors) << where << " facet " << f;
    ASSERT_EQ(a[f].plane.normal, b[f].plane.normal) << where;
    ASSERT_EQ(a[f].plane.offset, b[f].plane.offset) << where;
  }
}

// The constraints a run emits, in the order the production code emits
// them: FP adds direct constraints as it goes, then the critical ones;
// GIR*'s FP adds each star's critical constraints, then its direct ones.
std::vector<Vec> EmittedNormals(const Dataset& data,
                                const ScoringFunction& scoring,
                                const std::vector<StarRun>& runs,
                                bool direct_first) {
  std::vector<Vec> out;
  for (const StarRun& run : runs) {
    const Vec g_owner = scoring.Transform(data.Get(run.owner));
    auto emit = [&](RecordId id) {
      out.push_back(Sub(g_owner, scoring.Transform(data.Get(id))));
    };
    if (direct_first) {
      for (RecordId id : run.direct) emit(id);
    }
    for (int id : run.star->CriticalRecordIds()) emit(id);
    if (!direct_first) {
      for (RecordId id : run.direct) emit(id);
    }
  }
  return out;
}

std::vector<Vec> Normals(const GirRegion& region) {
  std::vector<Vec> out;
  for (const GirConstraint& c : region.constraints()) {
    out.push_back(c.normal);
  }
  return out;
}

size_t FacetsCreated(const std::vector<StarRun>& runs) {
  size_t total = 0;
  for (const StarRun& run : runs) total += run.star->facets_created();
  return total;
}

Dataset MakeData(const std::string& dist, size_t n, size_t d, Rng& rng) {
  if (dist == "ANTI") return GenerateAnticorrelated(n, d, rng);
  if (dist == "COR") return GenerateCorrelated(n, d, rng);
  return GenerateIndependent(n, d, rng);
}

// ----- the tests -----

TEST(FpSeedingTest, OnePassPicksMatchTheDPassLoop) {
  // Quantized coordinates with repeated rows: most per-dimension maxima
  // are tied, so the lowest-position rule decides the picks.
  for (size_t d : {2u, 3u, 4u, 6u}) {
    Rng rng(5100 + d);
    std::vector<std::vector<double>> rows;
    while (rows.size() < 400) {
      std::vector<double> row(d);
      for (double& x : row) x = 0.25 * static_cast<double>(rng.UniformInt(5));
      rows.push_back(row);
      if (rng.UniformInt(3) == 0) rows.push_back(row);
    }
    Dataset data = Dataset::FromRows(rows);
    for (size_t size : {0u, 1u, 2u, 3u, 5u, 40u, 400u}) {
      for (int rep = 0; rep < 20; ++rep) {
        std::vector<RecordId> t;
        for (size_t i = 0; i < size; ++i) {
          t.push_back(static_cast<RecordId>(rng.UniformInt(data.size())));
        }
        MaxCoordinateSeeder seeder(d);
        for (size_t i = 0; i < t.size(); ++i) seeder.Offer(data.Get(t[i]), i);
        ASSERT_EQ(seeder.Seeds(), DPassSeeds(data, t))
            << "d=" << d << " |T|=" << size << " rep " << rep;
      }
    }
  }
}

// FP and GIR*'s FP with the push-time box test against the pop-time
// walker: the same stars bit for bit (facets, critical records, facets
// created), and the production Phase 2 emits exactly the reference's
// constraints.
TEST(FpFrontierTest, PushTimeBoxTestKeepsEveryStar) {
  const char* kDists[] = {"IND", "ANTI", "COR"};
  const char* kScorings[] = {"Linear", "Polynomial", "Mixed"};
  for (size_t d = 3; d <= 6; ++d) {
    for (const char* dist : kDists) {
      Rng rng(6100 + 10 * d);
      Dataset data = MakeData(dist, d <= 4 ? 4000 : 2500, d, rng);
      DiskManager disk;
      RTree source = RTree::BulkLoad(&data, &disk);
      FlatRTree tree = FlatRTree::Freeze(source);
      for (const char* sname : kScorings) {
        std::unique_ptr<ScoringFunction> scoring = MakeScoring(sname, d);
        for (int q = 0; q < 2; ++q) {
          Vec w(d);
          for (double& x : w) x = rng.Uniform(0.1, 1.0);
          const size_t k = d <= 4 ? 20 : 10;
          Result<TopKResult> topk = RunBrs(tree, *scoring, w, k);
          ASSERT_TRUE(topk.ok());
          const std::string where = std::string(dist) + " " + sname +
                                    " d=" + std::to_string(d) + " query " +
                                    std::to_string(q);

          // FP.
          const std::vector<RecordId> kth = {topk->result.back()};
          std::vector<StarRun> want = RunStars<PopTimeWalker>(
              tree, *scoring, w, *topk, kth, true, 0xFACE7);
          std::vector<StarRun> got = RunStars<FrontierWalker>(
              tree, *scoring, w, *topk, kth, true, 0xFACE7);
          ExpectSameStar(want[0], got[0], where + " FP");
          GirRegion region(d, w, topk->result);
          Result<Phase2Output> fp =
              RunFpNdPhase2(tree, *scoring, w, *topk, &region);
          ASSERT_TRUE(fp.ok()) << where;
          EXPECT_EQ(fp->star_facets_created, FacetsCreated(want)) << where;
          EXPECT_EQ(Normals(region), EmittedNormals(data, *scoring, want, true))
              << where << " FP constraints";

          // GIR*'s FP.
          const std::vector<RecordId> rminus =
              PruneResultForGirStar(data, *scoring, topk->result);
          want = RunStars<PopTimeWalker>(tree, *scoring, w, *topk, rminus,
                                         false, 0xFACE8);
          got = RunStars<FrontierWalker>(tree, *scoring, w, *topk, rminus,
                                         false, 0xFACE8);
          ASSERT_EQ(got.size(), want.size());
          for (size_t s = 0; s < want.size(); ++s) {
            ExpectSameStar(want[s], got[s],
                           where + " GIR* star " + std::to_string(s));
          }
          GirRegion star_region(d, w, topk->result);
          Result<Phase2Output> star =
              RunGirStarPhase2(tree, *scoring, w, *topk, "FP", &star_region);
          ASSERT_TRUE(star.ok()) << where;
          EXPECT_EQ(star->star_facets_created, FacetsCreated(want)) << where;
          EXPECT_EQ(Normals(star_region),
                    EmittedNormals(data, *scoring, want, false))
              << where << " GIR* constraints";
        }
      }
    }
  }
}

// Every vertex of `a` lies within tol (L-infinity) of a vertex of `b`.
bool VerticesCovered(const std::vector<Vec>& a, const std::vector<Vec>& b,
                     double tol) {
  for (const Vec& v : a) {
    bool hit = false;
    for (const Vec& u : b) {
      double dist = 0.0;
      for (size_t j = 0; j < v.size(); ++j) {
        dist = std::max(dist, std::abs(v[j] - u[j]));
      }
      if (dist <= tol) {
        hit = true;
        break;
      }
    }
    if (!hit) return false;
  }
  return true;
}

// On quantized data with repeated rows, tied maxscores may pop in
// another order, so the star may keep other tied vertices; the region
// must still be the same.
TEST(FpFrontierTest, TiedDataGivesTheSameRegionVertices) {
  for (size_t d : {3u, 4u}) {
    Rng rng(7100 + d);
    std::vector<std::vector<double>> rows;
    while (rows.size() < 3000) {
      std::vector<double> row(d);
      for (double& x : row) x = 0.125 * static_cast<double>(rng.UniformInt(9));
      rows.push_back(row);
      if (rng.UniformInt(4) == 0) rows.push_back(row);
    }
    Dataset data = Dataset::FromRows(rows);
    DiskManager disk;
    RTree source = RTree::BulkLoad(&data, &disk);
    FlatRTree tree = FlatRTree::Freeze(source);
    for (const char* sname : {"Linear", "Polynomial"}) {
      std::unique_ptr<ScoringFunction> scoring = MakeScoring(sname, d);
      for (int q = 0; q < 4; ++q) {
        Vec w(d);
        for (double& x : w) x = rng.Uniform(0.1, 1.0);
        Result<TopKResult> topk = RunBrs(tree, *scoring, w, 10);
        ASSERT_TRUE(topk.ok());
        const std::string where = std::string(sname) + " d=" +
                                  std::to_string(d) + " query " +
                                  std::to_string(q);
        GirRegion got(d, w, topk->result);
        AddPhase1Constraints(data, *scoring, topk->result, &got);
        GirRegion want = got.ConstraintsOnly();
        ASSERT_TRUE(RunFpNdPhase2(tree, *scoring, w, *topk, &got).ok());
        const std::vector<RecordId> kth = {topk->result.back()};
        std::vector<StarRun> ref = RunStars<PopTimeWalker>(
            tree, *scoring, w, *topk, kth, true, 0xFACE7);
        for (const Vec& normal : EmittedNormals(data, *scoring, ref, true)) {
          want.AddConstraint(normal, ConstraintProvenance{});
        }
        const std::vector<Vec>& a = want.polytope().vertices();
        const std::vector<Vec>& b = got.polytope().vertices();
        ASSERT_FALSE(a.empty()) << where;
        EXPECT_TRUE(VerticesCovered(a, b, 1e-9)) << where;
        EXPECT_TRUE(VerticesCovered(b, a, 1e-9)) << where;
      }
    }
  }
}

}  // namespace
}  // namespace gir
