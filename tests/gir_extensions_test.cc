// Extensions beyond the tests in gir_methods_test: the footnote-7
// Phase-1 tightening, the STB baseline, the paper's Figure 3 worked
// example, and the FP incident-star data structure in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "common/rng.h"
#include "dataset/generators.h"
#include "geom/halfspace_intersection.h"
#include "gir/engine.h"
#include "gir/fp_frontier.h"
#include "gir/fpnd.h"
#include "gir/phase1.h"
#include "gir/sensitivity.h"
#include "region_oracle.h"

namespace gir {
namespace {

// ---------- Paper Figure 3: the worked Phase-1 example ----------
TEST(PaperFigure3Test, Phase1HalfplanesMatchThePaper) {
  // Records p1..p4 with the exact attributes of Figure 3(a).
  Dataset data = Dataset::FromRows({{0.54, 0.50},   // p1
                                    {0.50, 0.48},   // p2
                                    {0.52, 0.35},   // p3
                                    {0.40, 0.40}}); // p4
  LinearScoring scoring(2);
  Vec q = {0.4, 0.6};
  // Scores of Figure 3(a).
  EXPECT_NEAR(scoring.Score(data.Get(0), q), 0.516, 1e-12);
  EXPECT_NEAR(scoring.Score(data.Get(1), q), 0.488, 1e-12);
  EXPECT_NEAR(scoring.Score(data.Get(2), q), 0.418, 1e-12);
  EXPECT_NEAR(scoring.Score(data.Get(3), q), 0.400, 1e-12);

  GirRegion region(2, q, {0, 1, 2, 3});
  AddPhase1Constraints(data, scoring, {0, 1, 2, 3}, &region);
  ASSERT_EQ(region.constraints().size(), 3u);
  // (p1-p2)·q' >= 0  =>  0.04 w1 + 0.02 w2 >= 0
  EXPECT_NEAR(region.constraints()[0].normal[0], 0.04, 1e-12);
  EXPECT_NEAR(region.constraints()[0].normal[1], 0.02, 1e-12);
  // (p2-p3)·q' >= 0  =>  -0.02 w1 + 0.13 w2 >= 0
  EXPECT_NEAR(region.constraints()[1].normal[0], -0.02, 1e-12);
  EXPECT_NEAR(region.constraints()[1].normal[1], 0.13, 1e-12);
  // (p3-p4)·q' >= 0  =>  0.12 w1 - 0.05 w2 >= 0
  EXPECT_NEAR(region.constraints()[2].normal[0], 0.12, 1e-12);
  EXPECT_NEAR(region.constraints()[2].normal[1], -0.05, 1e-12);
  // The original query satisfies all three strictly.
  EXPECT_TRUE(region.Contains(q));
}

// ---------- Footnote-7 Phase-1 tightening ----------
struct TightenCase {
  const char* dataset;
  int dim;
  int k;
  // > 0: coordinates rounded to multiples of 1/quantize, which makes
  // exact ties and duplicate rows common.
  int quantize = 0;
};
class TighteningTest : public ::testing::TestWithParam<TightenCase> {};

// Tightening skips records and nodes whose constraint holds on the
// whole Phase-1 cone, and the region grows its dual hull out of the
// cone's. Neither may change the region: it must be the same set as
// FP's without tightening, and the GIR by Definition 1.
TEST_P(TighteningTest, SameRegionAsWithoutTightening) {
  const TightenCase& c = GetParam();
  Rng rng(3000 + c.dim);
  Result<Dataset> generated = GenerateByName(c.dataset, 4000, c.dim, rng);
  ASSERT_TRUE(generated.ok());
  Dataset data = std::move(*generated);
  if (c.quantize > 0) {
    std::vector<Vec> rows;
    for (size_t i = 0; i < data.size(); ++i) {
      Vec row(data.Get(static_cast<RecordId>(i)).begin(),
              data.Get(static_cast<RecordId>(i)).end());
      for (double& x : row) x = std::round(x * c.quantize) / c.quantize;
      rows.push_back(std::move(row));
    }
    data = Dataset::FromRows(rows);
  }
  DiskManager disk_a;
  GirEngineOptions plain;
  plain.fp.phase1_tightening = false;
  auto engine_a = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &disk_a, MakeScoring("Linear", c.dim), plain));
  DiskManager disk_b;
  GirEngineOptions tight;  // the default
  ASSERT_TRUE(tight.fp.phase1_tightening);
  auto engine_b = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &disk_b, MakeScoring("Linear", c.dim), tight));

  // The oracle draws its probes from its own generator, so the queries
  // depend on the cell alone.
  Rng oracle_rng(5000 + c.dim);
  for (int trial = 0; trial < 8; ++trial) {
    Vec w(c.dim);
    for (int j = 0; j < c.dim; ++j) w[j] = rng.Uniform(0.1, 1.0);
    Result<GirComputation> a = engine_a->ComputeGir(w, c.k, Phase2Method::kFP);
    Result<GirComputation> b = engine_b->ComputeGir(w, c.k, Phase2Method::kFP);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->topk.result, b->topk.result);
    // Tightening is a heuristic: a record it skips may have hidden
    // others from the star, so neither the reads nor the constraint
    // count fall on every query. The region is the invariant.
    EXPECT_TRUE(oracle::SameRegion(a->region, b->region, data,
                                   engine_a->scoring(), oracle_rng))
        << "trial " << trial;
  }
}

// ANTI d=3's last query is one where a cone filter that drops records
// within 1e-4 of the cone (instead of 0) yields a wrong region.
INSTANTIATE_TEST_SUITE_P(
    Sweep, TighteningTest,
    ::testing::Values(
        TightenCase{"IND", 3, 10}, TightenCase{"IND", 4, 20},
        TightenCase{"IND", 5, 10}, TightenCase{"IND", 6, 10},
        TightenCase{"ANTI", 3, 10}, TightenCase{"ANTI", 4, 10},
        TightenCase{"ANTI", 5, 10}, TightenCase{"ANTI", 6, 5},
        TightenCase{"COR", 3, 10}, TightenCase{"COR", 4, 5},
        TightenCase{"COR", 5, 10}, TightenCase{"COR", 6, 10},
        TightenCase{"IND", 3, 10, 8}, TightenCase{"IND", 4, 20, 8},
        TightenCase{"ANTI", 4, 10, 10}, TightenCase{"COR", 5, 10, 10}));

// A Phase-1 cone whose dual hull only built joggled. In ANTI d=4 with a
// constant column every top-k row shares that coordinate, so the
// Phase-1 normals are coplanar and, on some queries, the cone's hull
// needs a joggle. FP must build no ConeFilter from such a cone's
// inexact vertices: its Phase 2 then runs exactly as with tightening
// off (a filter would skip records and change the candidates), and the
// region is the same set.
TEST(TighteningJoggledConeTest, FpBuildsNoFilterFromAJoggledCone) {
  const int d = 4;
  const size_t k = 20;
  Rng rng(3000 + d);
  Result<Dataset> generated = GenerateByName("ANTI", 4000, d, rng);
  ASSERT_TRUE(generated.ok());
  std::vector<Vec> rows;
  for (size_t i = 0; i < generated->size(); ++i) {
    Vec row = generated->GetVec(static_cast<RecordId>(i));
    row[0] = 0.5;
    rows.push_back(std::move(row));
  }
  const Dataset data = Dataset::FromRows(rows);
  DiskManager disk_a;
  GirEngineOptions plain;
  plain.fp.phase1_tightening = false;
  auto engine_a = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &disk_a, MakeScoring("Linear", d), plain));
  DiskManager disk_b;
  auto engine_b = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk_b, MakeScoring("Linear", d)));
  const ScoringFunction& scoring = engine_b->scoring();
  const GirEngine::PinnedIndex pin = engine_b->PinIndex();

  Rng oracle_rng(5000 + d);
  int joggled = 0;
  for (int trial = 0; trial < 48; ++trial) {
    Vec w(d);
    for (int j = 0; j < d; ++j) w[j] = rng.Uniform(0.1, 1.0);
    Result<GirComputation> a = engine_a->ComputeGir(w, k, Phase2Method::kFP);
    Result<GirComputation> b = engine_b->ComputeGir(w, k, Phase2Method::kFP);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    auto phase1_cone = [&] {
      GirRegion cone(d, w, b->topk.result);
      AddPhase1Constraints(data, scoring, b->topk.result, &cone);
      cone.polytope();
      return cone;
    };
    GirRegion on = phase1_cone();
    if (!on.polytope_joggled()) continue;
    ++joggled;
    GirRegion off = phase1_cone();
    FpOptions tight_options;
    ASSERT_TRUE(tight_options.phase1_tightening);
    FpOptions plain_options;
    plain_options.phase1_tightening = false;
    Result<Phase2Output> p_on =
        RunFpNdPhase2(*pin.flat, scoring, w, b->topk, &on, tight_options);
    Result<Phase2Output> p_off =
        RunFpNdPhase2(*pin.flat, scoring, w, b->topk, &off, plain_options);
    ASSERT_TRUE(p_on.ok());
    ASSERT_TRUE(p_off.ok());
    EXPECT_EQ(p_on->candidates, p_off->candidates) << "trial " << trial;
    EXPECT_EQ(p_on->io.reads, p_off->io.reads) << "trial " << trial;
    EXPECT_EQ(p_on->star_facets_created, p_off->star_facets_created)
        << "trial " << trial;
    ASSERT_EQ(on.constraints().size(), off.constraints().size());
    for (size_t i = 0; i < on.constraints().size(); ++i) {
      EXPECT_EQ(on.constraints()[i].normal, off.constraints()[i].normal)
          << "trial " << trial << " constraint " << i;
    }
    EXPECT_TRUE(oracle::SameRegion(a->region, b->region, data, scoring,
                                   oracle_rng))
        << "trial " << trial;
  }
  EXPECT_GT(joggled, 0) << "no query reached a joggled Phase-1 cone";
}

// ---------- STB (Soliman et al.) baseline ----------
TEST(StbTest, BallIsInsideTheGir) {
  Rng rng(61);
  Dataset data = GenerateIndependent(2000, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  for (int trial = 0; trial < 6; ++trial) {
    Vec w = {rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8),
             rng.Uniform(0.2, 0.8)};
    Result<GirComputation> gir = engine->ComputeGir(w, 10, Phase2Method::kFP);
    ASSERT_TRUE(gir.ok());
    double r = StbRadius(gir->region);
    EXPECT_GT(r, 0.0);
    // Random points strictly inside the ball are inside the GIR.
    for (int probe = 0; probe < 200; ++probe) {
      Vec dir(3);
      for (int j = 0; j < 3; ++j) dir[j] = rng.Uniform(-1.0, 1.0);
      double norm = Norm(dir);
      if (norm < 1e-9) continue;
      Vec q = AddScaled(w, dir, 0.999 * r * rng.Uniform() / norm);
      EXPECT_TRUE(gir->region.Contains(q, 1e-12))
          << "STB ball escaped the GIR";
    }
    // Maximality: a slightly larger ball pokes out of the region, i.e.
    // some constraint is at distance exactly r.
    double min_dist = 1e300;
    for (const GirConstraint& c : gir->region.constraints()) {
      min_dist = std::min(min_dist, Dot(c.normal, w) / Norm(c.normal));
    }
    for (int j = 0; j < 3; ++j) {
      min_dist = std::min(min_dist, std::min(w[j], 1.0 - w[j]));
    }
    EXPECT_NEAR(r, min_dist, 1e-12);
  }
}

TEST(StbTest, BallVolumeFormula) {
  EXPECT_NEAR(BallVolume(2, 1.0), M_PI, 1e-9);
  EXPECT_NEAR(BallVolume(3, 1.0), 4.0 * M_PI / 3.0, 1e-9);
  EXPECT_NEAR(BallVolume(3, 0.5), 4.0 * M_PI / 3.0 / 8.0, 1e-9);
  EXPECT_NEAR(BallVolume(4, 1.0), M_PI * M_PI / 2.0, 1e-9);
}

TEST(StbTest, StbUnderestimatesGirVolume) {
  // The paper's §2 point: STB ⊆ GIR, so the ball volume understates the
  // immutable locus, often badly (the GIR is a thin cone, not a ball).
  Rng rng(62);
  Dataset data = GenerateIndependent(3000, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Vec w = {0.5, 0.6, 0.7};
  Result<GirComputation> gir = engine->ComputeGir(w, 10, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  double gir_volume = gir->region.polytope().Volume();
  double stb_volume = BallVolume(3, StbRadius(gir->region));
  EXPECT_LT(stb_volume, gir_volume);
}

TEST(StbTest, ZeroForDegenerateQuery) {
  GirRegion region(2, Vec{0.5, 0.5}, {1});
  ConstraintProvenance prov;
  region.AddConstraint(Vec{1.0, -1.0}, prov);
  region.AddConstraint(Vec{-1.0, 1.0}, prov);  // q exactly on both planes
  EXPECT_DOUBLE_EQ(StbRadius(region), 0.0);
}

// ---------- IncidentStar in isolation ----------
TEST(IncidentStarTest, InitialStarHasDimFacets) {
  IncidentStar star(Vec{0.8, 0.7, 0.9});
  EXPECT_EQ(star.live_facet_count(), 3u);
  EXPECT_TRUE(star.CriticalRecordIds().empty());
}

TEST(IncidentStarTest, DominatedPointIsPruned) {
  IncidentStar star(Vec{0.8, 0.8});
  Result<bool> r = star.Insert(Vec{0.5, 0.5}, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // below both initial facets
  EXPECT_TRUE(star.CriticalRecordIds().empty());
}

TEST(IncidentStarTest, ExtremePointEntersStar) {
  IncidentStar star(Vec{0.8, 0.8});
  Result<bool> r = star.Insert(Vec{0.9, 0.2}, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  std::vector<int> crit = star.CriticalRecordIds();
  ASSERT_EQ(crit.size(), 1u);
  EXPECT_EQ(crit[0], 7);
  EXPECT_EQ(star.live_facet_count(), 2u);  // d facets in 2-D always
}

TEST(IncidentStarTest, CriticalSetMatchesNormalConeOracle) {
  // The star's emitted constraints must carve exactly the normal cone:
  // q' (>=0) keeps the apex on top  <=>  q' satisfies all critical
  // constraints. As in FP, the apex is the top record for one query
  // (here q0 = (1, ..., 1)), and most points escape its dominance, so
  // the star really grows.
  Rng rng(71);
  for (int d = 2; d <= 8; ++d) {
    Vec apex(d, 0.8);
    const Vec q0(d, 1.0);
    std::vector<Vec> points;
    IncidentStar star(apex);
    while (points.size() < 300) {
      Vec p(d);
      for (int j = 0; j < d; ++j) p[j] = rng.Uniform(0.0, 1.0);
      if (Dot(p, q0) >= Dot(apex, q0)) continue;
      Result<bool> r = star.Insert(p, static_cast<int>(points.size()));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      points.push_back(std::move(p));
    }
    std::set<int> critical;
    for (int id : star.CriticalRecordIds()) critical.insert(id);
    EXPECT_FALSE(critical.empty()) << "d=" << d;
    for (int probe = 0; probe < 200; ++probe) {
      Vec q(d);
      for (int j = 0; j < d; ++j) q[j] = rng.Uniform(0.01, 1.0);
      bool apex_wins = true;
      for (const Vec& p : points) {
        if (Dot(p, q) > Dot(apex, q)) {
          apex_wins = false;
          break;
        }
      }
      bool critical_ok = true;
      for (int id : critical) {
        if (Dot(points[id], q) > Dot(apex, q)) {
          critical_ok = false;
          break;
        }
      }
      EXPECT_EQ(apex_wins, critical_ok) << "d=" << d << " probe=" << probe;
    }
  }
}

TEST(IncidentStarTest, DuplicateOfVertexIsIgnored) {
  IncidentStar star(Vec{0.9, 0.9, 0.9});
  Vec p = {0.95, 0.2, 0.3};
  ASSERT_TRUE(*star.Insert(p, 1));
  Result<bool> again = star.Insert(p, 2);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);  // lies ON existing facets, not above
}

TEST(IncidentStarTest, FacetsCreatedMonotone) {
  Rng rng(72);
  IncidentStar star(Vec{0.9, 0.9, 0.9, 0.9});
  size_t created = star.facets_created();
  for (int i = 0; i < 100; ++i) {
    Vec p(4);
    for (int j = 0; j < 4; ++j) p[j] = rng.Uniform(0.0, 0.95);
    ASSERT_TRUE(star.Insert(p, i).ok());
    EXPECT_GE(star.facets_created(), created);
    created = star.facets_created();
    EXPECT_LE(star.live_facet_count(), star.facets_created());
  }
}

// FP's insertion orders for the star tests: the apex is the top record
// under q, and every other record comes in id order, in descending
// score order and in reverse id order.
struct InsertionOrders {
  RecordId apex;
  std::vector<RecordId> by_id;
  std::vector<RecordId> by_score;
  std::vector<RecordId> reversed;
};

InsertionOrders MakeInsertionOrders(const Dataset& data, VecView q) {
  InsertionOrders o;
  o.by_id.resize(data.size());
  for (size_t i = 0; i < o.by_id.size(); ++i) {
    o.by_id[i] = static_cast<RecordId>(i);
  }
  o.by_score = o.by_id;
  std::stable_sort(o.by_score.begin(), o.by_score.end(),
                   [&](RecordId a, RecordId b) {
                     return Dot(data.Get(a), q) > Dot(data.Get(b), q);
                   });
  o.apex = o.by_score.front();
  o.by_score.erase(o.by_score.begin());
  o.by_id.erase(std::find(o.by_id.begin(), o.by_id.end(), o.apex));
  o.reversed.assign(o.by_id.rbegin(), o.by_id.rend());
  return o;
}

TEST(IncidentStarTest, FinalStarIsInsertionOrderIndependent) {
  // FP's first step inserts T in heap-pop order; that is only a speed
  // choice if the final star does not depend on the order (here, on
  // data in general position).
  for (const char* dist : {"IND", "ANTI"}) {
    for (size_t d = 3; d <= 6; ++d) {
      const std::string where = std::string(dist) + " d=" + std::to_string(d);
      Rng rng(7400 + d);
      Dataset data = std::string(dist) == "IND"
                         ? GenerateIndependent(1500, d, rng)
                         : GenerateAnticorrelated(1500, d, rng);
      Vec q(d);
      for (double& x : q) x = rng.Uniform(0.2, 1.0);
      const InsertionOrders o = MakeInsertionOrders(data, q);
      auto build = [&](const std::vector<RecordId>& order) {
        IncidentStar star(data.Get(o.apex));
        for (RecordId id : order) {
          Result<bool> r = star.Insert(data.Get(id), id);
          EXPECT_TRUE(r.ok()) << where << " record " << id;
        }
        return star;
      };
      const IncidentStar want = build(o.by_id);
      EXPECT_GT(want.CriticalRecordIds().size(), 1u) << where;
      for (const auto* order : {&o.by_score, &o.reversed}) {
        const IncidentStar got = build(*order);
        EXPECT_EQ(got.CriticalRecordIds(), want.CriticalRecordIds()) << where;
        EXPECT_EQ(got.live_facet_count(), want.live_facet_count()) << where;
      }
      // Score order is the cheap one: fewer facets die on the way.
      EXPECT_LE(build(o.by_score).facets_created(), want.facets_created())
          << where;
    }
  }
}

TEST(IncidentStarTest, TiedRecordsKeepTheRegionInAnyOrder) {
  // On tied and coplanar records (coordinates on a 0.1 grid, a quarter
  // of the rows repeated) the star's vertex set can depend on the
  // insertion order: which of two equal records, or which point of a
  // shared face, becomes a vertex. The region it bounds cannot: the
  // constraints of the critical records, plus those of records whose
  // insert failed (FP adds those directly), cut the same polytope from
  // the unit cube in every order.
  for (const char* dist : {"IND", "ANTI"}) {
    for (size_t d = 3; d <= 6; ++d) {
      const std::string where = std::string(dist) + " d=" + std::to_string(d);
      Rng rng(7600 + d);
      Dataset raw = std::string(dist) == "IND"
                        ? GenerateIndependent(1200, d, rng)
                        : GenerateAnticorrelated(1200, d, rng);
      Dataset data(d);
      Vec row(d);
      for (size_t i = 0; i < raw.size(); ++i) {
        VecView r = raw.Get(static_cast<RecordId>(i));
        for (size_t j = 0; j < d; ++j) row[j] = std::round(r[j] * 10) / 10;
        data.Append(row);
        if (rng.Uniform(0.0, 1.0) < 0.25) data.Append(row);
      }
      Vec q(d);
      for (double& x : q) x = rng.Uniform(0.2, 1.0);
      const InsertionOrders o = MakeInsertionOrders(data, q);
      VecView top = data.Get(o.apex);
      auto region = [&](const std::vector<RecordId>& order) {
        IncidentStar star(top);
        std::vector<int> ids;
        for (RecordId id : order) {
          if (!star.Insert(data.Get(id), id).ok()) ids.push_back(id);
        }
        for (int id : star.CriticalRecordIds()) ids.push_back(id);
        std::vector<Halfspace> ge(ids.size());
        for (size_t c = 0; c < ids.size(); ++c) {
          VecView p = data.Get(ids[c]);
          ge[c].normal.resize(d);
          for (size_t j = 0; j < d; ++j) ge[c].normal[j] = top[j] - p[j];
        }
        Result<IntersectionResult> cut = IntersectHalfspaces(ge, q);
        EXPECT_TRUE(cut.ok()) << where;
        std::vector<Vec> vertices;
        if (cut.ok()) vertices = cut->polytope.vertices();
        std::sort(vertices.begin(), vertices.end());
        return vertices;
      };
      const std::vector<Vec> want = region(o.by_id);
      EXPECT_GT(want.size(), d) << where;
      for (const auto* order : {&o.by_score, &o.reversed}) {
        const std::vector<Vec> got = region(*order);
        ASSERT_EQ(got.size(), want.size()) << where;
        for (const Vec& v : got) {
          const bool matched = std::any_of(
              want.begin(), want.end(), [&](const Vec& w) {
                for (size_t j = 0; j < d; ++j) {
                  if (std::abs(v[j] - w[j]) > 1e-9) return false;
                }
                return true;
              });
          EXPECT_TRUE(matched) << where;
        }
      }
    }
  }
}

// Checks the neighbour-slot invariant of every live facet: the apex
// comes first, each of the d-1 slots names another live facet that
// shares the apex ridge opposite vertex s+1, and that facet points back.
void ExpectStarAdjacencyConsistent(const IncidentStar& star, size_t d,
                                   const std::string& where) {
  const std::vector<IncidentStar::StarFacet> facets = star.facets();
  ASSERT_EQ(facets.size(), star.live_facet_count()) << where;
  for (size_t f = 0; f < facets.size(); ++f) {
    const IncidentStar::StarFacet& facet = facets[f];
    ASSERT_EQ(facet.vertices.size(), d) << where;
    ASSERT_EQ(facet.vertices[0], 0) << where << " facet " << f;
    ASSERT_EQ(facet.neighbors.size(), d - 1) << where;
    for (size_t s = 0; s + 1 < d; ++s) {
      const int nb = facet.neighbors[s];
      ASSERT_GE(nb, 0) << where;
      ASSERT_LT(static_cast<size_t>(nb), facets.size()) << where;
      ASSERT_NE(static_cast<size_t>(nb), f) << where;
      const IncidentStar::StarFacet& other = facets[nb];
      EXPECT_EQ(std::count(other.neighbors.begin(), other.neighbors.end(),
                           static_cast<int>(f)),
                1)
          << where << " facet " << f << " slot " << s << " -> " << nb;
      for (size_t i = 0; i < d; ++i) {
        if (i == s + 1) continue;
        EXPECT_NE(std::find(other.vertices.begin(), other.vertices.end(),
                            facet.vertices[i]),
                  other.vertices.end())
            << where << " facet " << f << " slot " << s << " ridge vertex "
            << facet.vertices[i] << " missing from neighbour " << nb;
      }
    }
  }
}

TEST(IncidentStarTest, NeighbourSlotsStayConsistentUnderAdversarialInserts) {
  // As in FP, the apex is the strict top record for one query q1; the
  // points tie it under q0 = (1, ..., 1) only.
  Rng rng(73);
  for (size_t d = 2; d <= 8; ++d) {
    Vec apex(d, 0.8);
    Vec q1(d);
    for (size_t j = 0; j < d; ++j) q1[j] = 1.0 + 1e-3 * static_cast<double>(j);
    IncidentStar star(apex);
    ExpectStarAdjacencyConsistent(star, d, "initial d=" + std::to_string(d));
    std::vector<Vec> inserted;
    std::vector<Vec> star_points;  // the points that changed the star
    for (int i = 0; i < 120; ++i) {
      Vec p(d);
      const int kind = i % 4;
      if (kind == 1 && !inserted.empty()) {
        // Exact duplicate of an earlier point.
        p = inserted[rng.UniformInt(inserted.size())];
      } else if (kind == 2) {
        // On a live facet: a convex combination of its vertices. Internal
        // id 0 is the apex, 1..d the dummies apex - c_i e_i, and then the
        // points that changed the star, in order.
        const std::vector<IncidentStar::StarFacet> facets = star.facets();
        const IncidentStar::StarFacet& f =
            facets[rng.UniformInt(facets.size())];
        std::vector<double> w(d);
        double total = 0.0;
        for (double& x : w) total += (x = rng.Uniform(0.1, 1.0));
        p.assign(d, 0.0);
        for (size_t v = 0; v < d; ++v) {
          const size_t id = static_cast<size_t>(f.vertices[v]);
          Vec vertex = apex;
          if (id >= 1 && id <= d) {
            vertex[id - 1] -= std::max(apex[id - 1], 0.5);
          } else if (id > d) {
            vertex = star_points[id - d - 1];
          }
          for (size_t j = 0; j < d; ++j) p[j] += w[v] / total * vertex[j];
        }
      } else if (kind == 3) {
        // Ties the apex score under q0: shift mass from a higher to a
        // lower coordinate (which keeps it below the apex under q1).
        p = apex;
        const size_t a = rng.UniformInt(d - 1);
        const size_t b = a + 1 + rng.UniformInt(d - 1 - a);
        const double t = rng.Uniform(0.0, 0.15);
        p[a] += t;
        p[b] -= t;
      } else {
        do {
          for (double& x : p) x = rng.Uniform(0.0, 1.0);
        } while (Dot(p, q1) >= Dot(apex, q1));
      }
      const size_t created = star.facets_created();
      Result<bool> r = star.Insert(p, i);
      const std::string where =
          "d=" + std::to_string(d) + " insert " + std::to_string(i);
      ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
      if (*r) {
        EXPECT_GT(star.facets_created(), created) << where;
        star_points.push_back(p);
      } else {
        EXPECT_EQ(star.facets_created(), created) << where;
      }
      ExpectStarAdjacencyConsistent(star, d, where);
      if (::testing::Test::HasFatalFailure()) return;
      inserted.push_back(std::move(p));
    }
    EXPECT_FALSE(star_points.empty()) << "d=" << d;
  }
}

TEST(IncidentStarTest, DegenerateInsertLeavesStarUntouched) {
  // With eps = 0, a point a hair (1e-13) above the facet with normal e0
  // is visible, yet it is affinely dependent with the apex and dummy 2
  // (apex - c e1) at the 1e-12 rank floor: the new facet through them
  // cannot be fitted.
  for (size_t d = 3; d <= 8; ++d) {
    const Vec apex(d, 0.9);
    IncidentStar star(apex, /*eps=*/0.0);
    // Grow the star away from that facet first (d >= 4): points that
    // exceed the apex in one of the coordinates 3..d-1 only.
    Rng rng(74 + d);
    for (int i = 0; d >= 4 && i < 20; ++i) {
      Vec p(d);
      for (double& x : p) x = rng.Uniform(0.0, 0.5);
      p[3 + rng.UniformInt(d - 3)] = rng.Uniform(0.9, 0.95);
      ASSERT_TRUE(star.Insert(p, i).ok());
    }
    if (d >= 4) {
      EXPECT_GT(star.facets_created(), d) << "d=" << d;
    }
    const std::vector<IncidentStar::StarFacet> before = star.facets();
    const std::vector<int> critical = star.CriticalRecordIds();
    const size_t created = star.facets_created();

    Vec degenerate = apex;
    degenerate[0] += 1e-13;
    degenerate[1] -= 0.45;
    Result<bool> r = star.Insert(degenerate, 99);
    ASSERT_FALSE(r.ok()) << "d=" << d;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << "d=" << d;

    EXPECT_EQ(star.facets_created(), created) << "d=" << d;
    EXPECT_EQ(star.CriticalRecordIds(), critical) << "d=" << d;
    const std::vector<IncidentStar::StarFacet> after = star.facets();
    ASSERT_EQ(after.size(), before.size()) << "d=" << d;
    for (size_t f = 0; f < after.size(); ++f) {
      EXPECT_EQ(after[f].vertices, before[f].vertices) << "d=" << d;
      EXPECT_EQ(after[f].neighbors, before[f].neighbors) << "d=" << d;
      EXPECT_EQ(after[f].plane.normal, before[f].plane.normal) << "d=" << d;
      EXPECT_EQ(after[f].plane.offset, before[f].plane.offset) << "d=" << d;
    }
    ExpectStarAdjacencyConsistent(star, d, "after degenerate insert");
  }
}

// ---------- per-leaf group testing (pools) ----------

// Bitwise equality of two stars: every live facet (vertices, neighbour
// slots, normal and offset bits), the critical set and the work count.
void ExpectSameStar(const IncidentStar& a, const IncidentStar& b,
                    const std::string& where) {
  ASSERT_EQ(a.facets_created(), b.facets_created()) << where;
  ASSERT_EQ(a.CriticalRecordIds(), b.CriticalRecordIds()) << where;
  const std::vector<IncidentStar::StarFacet> fa = a.facets();
  const std::vector<IncidentStar::StarFacet> fb = b.facets();
  ASSERT_EQ(fa.size(), fb.size()) << where;
  for (size_t f = 0; f < fa.size(); ++f) {
    ASSERT_EQ(fa[f].vertices, fb[f].vertices) << where << " facet " << f;
    ASSERT_EQ(fa[f].neighbors, fb[f].neighbors) << where << " facet " << f;
    ASSERT_EQ(fa[f].plane.normal.size(), fb[f].plane.normal.size()) << where;
    ASSERT_EQ(std::memcmp(fa[f].plane.normal.data(), fb[f].plane.normal.data(),
                          fa[f].plane.normal.size() * sizeof(double)),
              0)
        << where << " facet " << f;
    ASSERT_EQ(std::memcmp(&fa[f].plane.offset, &fb[f].plane.offset,
                          sizeof(double)),
              0)
        << where << " facet " << f;
  }
}

// Coordinates of star vertex `id`: 0 is the apex, 1..d the dummies
// apex - c_i e_i, then the points that changed the star, in order.
Vec StarVertex(const Vec& apex, const std::vector<Vec>& star_points,
               size_t id) {
  const size_t d = apex.size();
  Vec v = apex;
  if (id >= 1 && id <= d) {
    v[id - 1] -= std::max(apex[id - 1], 0.5);
  } else if (id > d) {
    v = star_points[id - d - 1];
  }
  return v;
}

// Pooled insertion (LeafGroupTest over a leaf's SoA planes) against the
// plain loop that inserts every point with the same joggle ladder. The
// point stream mixes random points, exact duplicates (also inside one
// leaf), points on live facets, apex ties, and — with eps = 0 — a point
// whose facet fit is degenerate, placed mid-leaf so the records after
// it are tested against the pool rebuilt after a joggled insert. After
// every point both stars must be bitwise equal.
TEST(IncidentStarTest, PooledInsertionEqualsUnpooled) {
  for (double eps : {1e-10, 0.0}) {
    size_t degenerate_fits = 0;
    size_t skipped_by_pool = 0;
    size_t changed = 0;
    for (size_t d = 2; d <= 8; ++d) {
      const std::string dcase =
          "eps=" + std::to_string(eps) + " d=" + std::to_string(d);
      Rng rng(900 + d + (eps == 0.0 ? 50 : 0));
      const Vec apex(d, 0.9);
      Vec q1(d);
      for (size_t j = 0; j < d; ++j) {
        q1[j] = 1.0 + 1e-3 * static_cast<double>(j);
      }
      IncidentStar plain(apex, eps);
      IncidentStar pooled(apex, eps);
      Rng plain_rng(7);
      Rng pooled_rng(7);
      Vec joggled;
      std::vector<Vec> star_points;  // points that changed `plain`
      std::vector<Vec> history;
      LeafGroupTest group;
      int next_id = 0;
      for (int leaf = 0; leaf < 24; ++leaf) {
        const size_t count = 1 + rng.UniformInt(16);
        std::vector<Vec> points;
        for (size_t i = 0; i < count; ++i) {
          Vec p(d);
          const uint64_t kind = rng.UniformInt(5);
          if (kind == 0 && !history.empty()) {
            p = history[rng.UniformInt(history.size())];
          } else if (kind == 1 && !points.empty()) {
            p = points[rng.UniformInt(points.size())];
          } else if (kind == 2) {
            const std::vector<IncidentStar::StarFacet> facets =
                plain.facets();
            const IncidentStar::StarFacet& f =
                facets[rng.UniformInt(facets.size())];
            std::vector<double> w(d);
            double total = 0.0;
            for (double& x : w) total += (x = rng.Uniform(0.1, 1.0));
            p.assign(d, 0.0);
            for (size_t v = 0; v < d; ++v) {
              const Vec vertex = StarVertex(
                  apex, star_points, static_cast<size_t>(f.vertices[v]));
              for (size_t j = 0; j < d; ++j) p[j] += w[v] / total * vertex[j];
            }
          } else if (kind == 3 && d >= 2) {
            p = apex;
            const size_t a = rng.UniformInt(d - 1);
            const size_t b = a + 1 + rng.UniformInt(d - 1 - a);
            const double t = rng.Uniform(0.0, 0.2);
            p[a] += t;
            p[b] -= t;
          } else {
            do {
              for (double& x : p) x = rng.Uniform(0.0, 1.0);
            } while (Dot(p, q1) >= Dot(apex, q1));
          }
          points.push_back(std::move(p));
        }
        if (eps == 0.0 && d >= 3 && leaf % 6 == 5) {
          // DegenerateInsertLeavesStarUntouched's point: visible at
          // eps = 0, yet its fit against the apex and dummy 2 is
          // degenerate, so only a joggled copy can enter.
          Vec degenerate = apex;
          degenerate[0] += 1e-13;
          degenerate[1] -= 0.45;
          points.insert(points.begin() + points.size() / 2, degenerate);
        }
        const size_t n = points.size();

        // The leaf's box: the points' bounding box, sometimes widened.
        Mbb box = Mbb::EmptyBox(d);
        for (size_t j = 0; j < d; ++j) {
          box.lo[j] = box.hi[j] = points[0][j];
          for (const Vec& p : points) {
            box.lo[j] = std::min(box.lo[j], p[j]);
            box.hi[j] = std::max(box.hi[j], p[j]);
          }
          if (rng.UniformInt(3) == 0) {
            box.lo[j] -= rng.Uniform(0.0, 0.1);
            box.hi[j] += rng.Uniform(0.0, 0.1);
          }
        }
        // SoA planes with a stride wider than the leaf.
        const size_t stride = n + 3;
        std::vector<double> planes(d * stride, -1.0);
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = 0; j < d; ++j) planes[j * stride + i] = points[i][j];
        }

        const bool any = group.Reset(pooled, box);
        group.Test(pooled, GPlanes{planes.data(), stride}, n);
        for (size_t i = 0; i < n; ++i) {
          const int id = next_id++;
          const std::string where = dcase + " leaf " + std::to_string(leaf) +
                                    " point " + std::to_string(i);
          // Reference: every point through the unpooled ladder.
          Result<bool> r = plain.Insert(points[i], id);
          if (!r.ok()) ++degenerate_fits;
          for (int attempt = 1; attempt < 3 && !r.ok(); ++attempt) {
            joggled = points[i];
            for (double& x : joggled) {
              x += plain_rng.Uniform(-1e-11, 1e-11) * (1 << attempt);
            }
            r = plain.Insert(joggled, id);
          }
          if (r.ok() && *r) {
            star_points.push_back(points[i]);
            ++changed;
          }
          if (!any || !group.Marked(i)) {
            // Skipping is only sound when Insert was a no-op.
            ASSERT_TRUE(r.ok()) << where;
            ASSERT_FALSE(*r) << where;
            ++skipped_by_pool;
          } else {
            const bool inserted =
                group.Insert(pooled, points[i], id, i, pooled_rng, &joggled);
            ASSERT_EQ(inserted, r.ok()) << where;
          }
          ExpectSameStar(plain, pooled, where);
          if (::testing::Test::HasFatalFailure()) return;
          history.push_back(points[i]);
        }
      }
    }
    EXPECT_GT(changed, 0u) << "eps=" << eps;
    EXPECT_GT(skipped_by_pool, 0u) << "eps=" << eps;
    if (eps == 0.0) EXPECT_GT(degenerate_fits, 0u);
  }
}

// The pool of a box, kept current through UpdatePool across inserts,
// equals the pool collected from scratch after each of them; and no
// facet outside it sees a point of the box.
TEST(IncidentStarTest, UpdatedPoolEqualsCollectedPool) {
  Rng rng(905);
  for (size_t d = 2; d <= 7; ++d) {
    const Vec apex(d, 0.85);
    IncidentStar star(apex);
    Mbb box = Mbb::EmptyBox(d);
    for (size_t j = 0; j < d; ++j) {
      box.lo[j] = rng.Uniform(0.0, 0.5);
      box.hi[j] = box.lo[j] + rng.Uniform(0.1, 0.5);
    }
    std::vector<int> kept_current;
    star.CollectPool(box, &kept_current);
    std::vector<int> fresh;
    const Vec q1(d, 1.0);
    for (int i = 0; i < 150; ++i) {
      Vec p(d);
      do {
        for (double& x : p) x = rng.Uniform(0.0, 1.0);
      } while (Dot(p, q1) >= Dot(apex, q1));
      Result<bool> r = star.Insert(p, i);
      ASSERT_TRUE(r.ok());
      if (*r) star.UpdatePool(box, &kept_current);
      star.CollectPool(box, &fresh);
      ASSERT_EQ(kept_current, fresh) << "d=" << d << " insert " << i;
      ASSERT_TRUE(std::is_sorted(fresh.begin(), fresh.end()));
      EXPECT_EQ(fresh.empty(), star.BoxBelowAllFacets(box));
      // Points of the box see only pool facets.
      const std::vector<IncidentStar::StarFacet> facets = star.facets();
      for (int probe = 0; probe < 4; ++probe) {
        Vec x(d);
        for (size_t j = 0; j < d; ++j) {
          x[j] = rng.Uniform(box.lo[j], box.hi[j]);
        }
        for (size_t f = 0; f < facets.size(); ++f) {
          double dot = 0.0;
          for (size_t j = 0; j < d; ++j) {
            dot += facets[f].plane.normal[j] * x[j];
          }
          if (dot - facets[f].plane.offset > 1e-10) {
            EXPECT_TRUE(std::binary_search(fresh.begin(), fresh.end(),
                                           static_cast<int>(f)))
                << "d=" << d << " facet " << f;
          }
        }
      }
    }
  }
}

// The box test and the point test are one predicate. A point whose dot
// equals the rounded-up offset + eps is visible to Insert; the box that
// is just that point must therefore not be pruned (the old box form,
// max_dot > offset + eps, pruned it) and must pool the facet.
TEST(IncidentStarTest, BoxTestRoundsLikeThePointTest) {
  const double eps = 1e-10;
  bool found = false;
  for (int step = 0; step < 1000 && !found; ++step) {
    const double a0 = 0.7 + 1e-4 * step;
    const Vec apex = {a0, 0.6};
    IncidentStar star(apex, eps);
    // The initial facet through the apex and dummy 2 is the vertical
    // line x0 = a0: look for a fit with normal exactly (1, 0).
    const std::vector<IncidentStar::StarFacet> facets = star.facets();
    for (size_t f = 0; f < facets.size() && !found; ++f) {
      const Vec& n = facets[f].plane.normal;
      const double off = facets[f].plane.offset;
      if (n[0] != 1.0 || n[1] != 0.0) continue;
      const double bound = off + eps;  // rounded
      if (!(bound - off > eps)) continue;  // need offset + eps rounded up
      found = true;
      const Vec x = {bound, 0.1};
      double dot = 0.0;
      for (size_t j = 0; j < 2; ++j) dot += n[j] * x[j];
      ASSERT_EQ(dot, bound);
      ASSERT_FALSE(dot > off + eps);  // the old box form would prune
      ASSERT_TRUE(dot - off > eps);   // the point form sees it
      const Mbb point_box = Mbb::OfPoint(x);
      EXPECT_FALSE(star.BoxBelowAllFacets(point_box));
      std::vector<int> pool;
      star.CollectPool(point_box, &pool);
      EXPECT_NE(std::find(pool.begin(), pool.end(), static_cast<int>(f)),
                pool.end());
      uint8_t mask = 0;
      const std::vector<double> planes = {x[0], x[1]};
      star.MarkVisible(pool.data(), pool.size(), planes.data(), 1, 1, &mask);
      EXPECT_EQ(mask, 1);
      Result<bool> r = star.Insert(x, 1);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(*r);
    }
  }
  EXPECT_TRUE(found) << "no apex with a rounded-up offset + eps";
}

// ---------- FP seeding-heuristic equivalence ----------
TEST(FpSeedingTest, HeuristicDoesNotChangeTheRegion) {
  Rng rng(81);
  Dataset data = GenerateAnticorrelated(3000, 4, rng);
  DiskManager disk_a;
  GirEngineOptions with;
  with.fp.max_coordinate_seeding = true;
  auto engine_a = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk_a, MakeScoring("Linear", 4), with));
  DiskManager disk_b;
  GirEngineOptions without;
  without.fp.max_coordinate_seeding = false;
  auto engine_b = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk_b, MakeScoring("Linear", 4), without));
  Vec w = {0.5, 0.7, 0.4, 0.8};
  Result<GirComputation> a = engine_a->ComputeGir(w, 15, Phase2Method::kFP);
  Result<GirComputation> b = engine_b->ComputeGir(w, 15, Phase2Method::kFP);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int probe = 0; probe < 400; ++probe) {
    Vec q(4);
    for (int j = 0; j < 4; ++j) q[j] = rng.Uniform();
    EXPECT_EQ(a->region.Contains(q), b->region.Contains(q));
  }
}

// ---------- FP 2-D angular variant vs d-dim star ----------
TEST(Fp2dVsNdTest, IdenticalRegionsIn2D) {
  Rng rng(91);
  Dataset data = GenerateIndependent(2500, 2, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 2)));
  LinearScoring scoring(2);
  const FlatRTree& flat = engine->flat_tree();
  for (int trial = 0; trial < 6; ++trial) {
    Vec w = {rng.Uniform(0.1, 1.0), rng.Uniform(0.1, 1.0)};
    // Engine dispatches to the angular variant at d == 2.
    Result<GirComputation> via2d = engine->ComputeGir(w, 8, Phase2Method::kFP);
    ASSERT_TRUE(via2d.ok());
    // Run the d-dimensional star machinery on the same query.
    Result<TopKResult> topk = RunBrs(flat, scoring, w, 8);
    ASSERT_TRUE(topk.ok());
    GirRegion region_nd(2, w, topk->result);
    AddPhase1Constraints(data, scoring, topk->result, &region_nd);
    Result<Phase2Output> nd =
        RunFpNdPhase2(flat, scoring, w, *topk, &region_nd);
    ASSERT_TRUE(nd.ok());
    for (int probe = 0; probe < 400; ++probe) {
      Vec q = {rng.Uniform(), rng.Uniform()};
      EXPECT_EQ(via2d->region.Contains(q), region_nd.Contains(q))
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace gir
