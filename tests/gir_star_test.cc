// Order-insensitive GIR* (paper §7.1): membership must predict
// preservation of the result COMPOSITION (as a set), the region must
// contain the order-sensitive GIR, and SP/CP/FP variants must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/engine.h"
#include "gir/gir_star.h"
#include "skyline/dominance.h"

namespace gir {
namespace {

// The first k records by decreasing score, ties in id order (what a
// stable sort by score yields), as a set.
std::set<RecordId> ScanTopKSet(const Dataset& data,
                               const ScoringFunction& scoring, VecView w,
                               size_t k) {
  std::vector<double> score(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    score[i] = scoring.Score(data.Get(static_cast<RecordId>(i)), w);
  }
  std::vector<RecordId> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::partial_sort(ids.begin(), ids.begin() + k, ids.end(),
                    [&](RecordId a, RecordId b) {
                      return score[a] != score[b] ? score[a] > score[b]
                                                  : a < b;
                    });
  return std::set<RecordId>(ids.begin(), ids.begin() + k);
}

TEST(PruneResultTest, DropsDominatorsAndInterior) {
  // Result shaped like paper Figure 12: p2 dominates p5, p3 interior.
  Dataset data = Dataset::FromRows({
      {0.30, 0.95},  // 0: hull, dominates nobody
      {0.75, 0.80},  // 1: dominates record 2 and 4
      {0.60, 0.70},  // 2: interior
      {0.90, 0.30},  // 3: hull, dominates nobody
      {0.70, 0.55},  // 4: interior (above the 0-3 hull edge) + dominated
  });
  LinearScoring scoring(2);
  std::vector<RecordId> r = {0, 1, 2, 3, 4};
  std::vector<RecordId> rminus = PruneResultForGirStar(data, scoring, r);
  // 1 dominates 2: drop 1. 2 and 4 interior: drop. Expect {0, 3}.
  EXPECT_EQ(rminus, (std::vector<RecordId>{0, 3}));
}

TEST(PruneResultTest, SmallResultKeptWhole) {
  Dataset data = Dataset::FromRows({{0.2, 0.9}, {0.9, 0.2}});
  LinearScoring scoring(2);
  std::vector<RecordId> r = {0, 1};
  EXPECT_EQ(PruneResultForGirStar(data, scoring, r).size(), 2u);
}

struct StarCase {
  const char* dataset;
  int dim;
  int k;
  const char* method;
  size_t n = 400;
};

class GirStarTest : public ::testing::TestWithParam<StarCase> {};

TEST_P(GirStarTest, MembershipPredictsCompositionPreservation) {
  const StarCase& c = GetParam();
  Rng rng(1000 + c.dim);
  Result<Dataset> data = GenerateByName(c.dataset, c.n, c.dim, rng);
  ASSERT_TRUE(data.ok());
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&*data, &disk, MakeScoring("Linear", c.dim)));
  LinearScoring scoring(c.dim);
  Result<Phase2Method> method = ParsePhase2Method(c.method);
  ASSERT_TRUE(method.ok());

  Vec w(c.dim);
  for (int j = 0; j < c.dim; ++j) w[j] = rng.Uniform(0.2, 0.9);
  Result<GirComputation> star = engine->ComputeGirStar(w, c.k, *method);
  ASSERT_TRUE(star.ok());
  std::set<RecordId> original = ScanTopKSet(*data, scoring, w, c.k);

  // Inside probes via convex ray sampling.
  int inside = 0;
  for (int probe = 0; probe < 60; ++probe) {
    Vec dir(c.dim);
    for (int j = 0; j < c.dim; ++j) dir[j] = rng.Uniform(-1.0, 1.0);
    GirRegion::RaySpan span = star->region.ClipRay(w, dir);
    Vec q = AddScaled(w, dir, rng.Uniform(0.0, 0.9 * span.t_max));
    if (!star->region.Contains(q, -1e-9)) continue;
    EXPECT_EQ(ScanTopKSet(*data, scoring, q, c.k), original)
        << "composition must be preserved inside GIR*";
    ++inside;
  }
  int outside = 0;
  for (int probe = 0; probe < 200; ++probe) {
    Vec q(c.dim);
    for (int j = 0; j < c.dim; ++j) q[j] = rng.Uniform(0.001, 1.0);
    if (star->region.Contains(q, 1e-9)) continue;
    EXPECT_NE(ScanTopKSet(*data, scoring, q, c.k), original)
        << "composition must change outside GIR*";
    ++outside;
  }
  EXPECT_GT(inside, 5);
  EXPECT_GT(outside, 5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GirStarTest,
    ::testing::Values(StarCase{"IND", 2, 6, "FP"}, StarCase{"IND", 3, 6, "FP"},
                      StarCase{"IND", 3, 6, "SP"}, StarCase{"IND", 3, 6, "CP"},
                      StarCase{"ANTI", 3, 5, "FP"},
                      StarCase{"ANTI", 4, 6, "SP"},
                      StarCase{"COR", 4, 8, "FP"},
                      // Definition 2 where GIR*'s FP group-tests many
                      // leaves per star.
                      StarCase{"IND", 5, 6, "FP", 5000},
                      StarCase{"ANTI", 5, 5, "FP", 5000},
                      StarCase{"IND", 6, 4, "FP", 5000}));

TEST(GirStarTest, VariantsDescribeTheSameRegion) {
  Rng rng(2024);
  Dataset data = GenerateIndependent(500, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Vec w = {0.5, 0.7, 0.4};
  Result<GirComputation> sp = engine->ComputeGirStar(w, 8, Phase2Method::kSP);
  Result<GirComputation> cp = engine->ComputeGirStar(w, 8, Phase2Method::kCP);
  Result<GirComputation> fp = engine->ComputeGirStar(w, 8, Phase2Method::kFP);
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(cp.ok());
  ASSERT_TRUE(fp.ok());
  for (int probe = 0; probe < 500; ++probe) {
    Vec q = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    bool in_sp = sp->region.Contains(q);
    EXPECT_EQ(in_sp, cp->region.Contains(q));
    EXPECT_EQ(in_sp, fp->region.Contains(q));
  }
}

TEST(GirStarTest, GirStarEnclosesGir) {
  // Definition 2 is looser than Definition 1: GIR ⊆ GIR*.
  Rng rng(31337);
  Dataset data = GenerateAnticorrelated(400, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  for (int trial = 0; trial < 5; ++trial) {
    Vec w(3);
    for (int j = 0; j < 3; ++j) w[j] = rng.Uniform(0.2, 0.9);
    Result<GirComputation> gir = engine->ComputeGir(w, 6, Phase2Method::kFP);
    Result<GirComputation> star =
        engine->ComputeGirStar(w, 6, Phase2Method::kFP);
    ASSERT_TRUE(gir.ok());
    ASSERT_TRUE(star.ok());
    // Sample inside the order-sensitive GIR; must be inside GIR*.
    for (int probe = 0; probe < 100; ++probe) {
      Vec dir(3);
      for (int j = 0; j < 3; ++j) dir[j] = rng.Uniform(-1.0, 1.0);
      GirRegion::RaySpan span = gir->region.ClipRay(w, dir);
      Vec q = AddScaled(w, dir, rng.Uniform(0.0, 0.95 * span.t_max));
      if (!gir->region.Contains(q)) continue;
      EXPECT_TRUE(star->region.Contains(q, 1e-9));
    }
    double v_gir = gir->region.polytope().Volume();
    double v_star = star->region.polytope().Volume();
    EXPECT_GE(v_star, v_gir - 1e-9);
  }
}

TEST(GirStarTest, BruteForceMethodRejected) {
  Rng rng(5);
  Dataset data = GenerateIndependent(100, 2, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 2)));
  EXPECT_FALSE(
      engine->ComputeGirStar(Vec{0.5, 0.5}, 5, Phase2Method::kBruteForce)
          .ok());
}

}  // namespace
}  // namespace gir
