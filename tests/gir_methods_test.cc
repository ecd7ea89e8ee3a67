// End-to-end correctness of the GIR algorithms. The two load-bearing
// properties:
//   1. SP, CP, FP and the brute-force reference describe the SAME
//      region (identical membership), even though their constraint
//      sets differ.
//   2. Semantics: any query vector inside the region reproduces the
//      exact ordered top-k; vectors outside it do not.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/brute_force.h"
#include "gir/engine.h"
#include "topk/scoring.h"

namespace gir {
namespace {

// The first k records by decreasing score, ties in id order (what a
// stable sort by score yields).
std::vector<RecordId> ScanTopK(const Dataset& data,
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
  ids.resize(k);
  return ids;
}

struct MethodCase {
  const char* dataset;
  int dim;
  int k;
  uint64_t seed;
  size_t n = 400;
  const char* scoring = "Linear";
};

class GirEquivalenceTest : public ::testing::TestWithParam<MethodCase> {};

TEST_P(GirEquivalenceTest, AllMethodsDescribeTheSameRegion) {
  const MethodCase& c = GetParam();
  Rng rng(c.seed);
  Result<Dataset> data = GenerateByName(c.dataset, 600, c.dim, rng);
  ASSERT_TRUE(data.ok());
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&*data, &disk, MakeScoring("Linear", c.dim)));

  Vec w(c.dim);
  for (int j = 0; j < c.dim; ++j) w[j] = rng.Uniform(0.1, 1.0);

  Result<GirComputation> bf =
      engine->ComputeGir(w, c.k, Phase2Method::kBruteForce);
  Result<GirComputation> sp = engine->ComputeGir(w, c.k, Phase2Method::kSP);
  Result<GirComputation> cp = engine->ComputeGir(w, c.k, Phase2Method::kCP);
  Result<GirComputation> fp = engine->ComputeGir(w, c.k, Phase2Method::kFP);
  ASSERT_TRUE(bf.ok());
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(cp.ok());
  ASSERT_TRUE(fp.ok());

  // Identical top-k across methods.
  EXPECT_EQ(bf->topk.result, sp->topk.result);
  EXPECT_EQ(sp->topk.result, cp->topk.result);
  EXPECT_EQ(cp->topk.result, fp->topk.result);

  // The pruning chain: FP keeps no more candidates than CP keeps
  // records, which keeps no more than SP.
  EXPECT_LE(cp->stats.candidates, sp->stats.candidates);
  EXPECT_LE(fp->stats.candidates, sp->stats.candidates);

  // Membership equivalence on random probes (mix of inside/outside).
  for (int probe = 0; probe < 400; ++probe) {
    Vec q(c.dim);
    for (int j = 0; j < c.dim; ++j) {
      // Half the probes hug the query (likely inside), half roam.
      q[j] = probe % 2 == 0 ? std::clamp(w[j] + rng.Uniform(-0.15, 0.15),
                                         0.0, 1.0)
                            : rng.Uniform();
    }
    bool in_bf = bf->region.Contains(q);
    EXPECT_EQ(in_bf, sp->region.Contains(q)) << "probe " << probe;
    EXPECT_EQ(in_bf, cp->region.Contains(q)) << "probe " << probe;
    EXPECT_EQ(in_bf, fp->region.Contains(q)) << "probe " << probe;
  }

  // Region volumes agree.
  double v_bf = bf->region.polytope().Volume();
  double v_fp = fp->region.polytope().Volume();
  EXPECT_NEAR(v_bf, v_fp, 1e-7 + 1e-4 * v_bf);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GirEquivalenceTest,
    ::testing::Values(MethodCase{"IND", 2, 5, 11}, MethodCase{"IND", 2, 1, 12},
                      MethodCase{"IND", 3, 10, 13},
                      MethodCase{"IND", 4, 8, 14}, MethodCase{"IND", 5, 5, 15},
                      MethodCase{"COR", 3, 5, 16}, MethodCase{"COR", 4, 10, 17},
                      MethodCase{"ANTI", 2, 10, 18},
                      MethodCase{"ANTI", 3, 8, 19},
                      MethodCase{"ANTI", 4, 5, 20}));

class GirSemanticsTest : public ::testing::TestWithParam<MethodCase> {};

TEST_P(GirSemanticsTest, RegionMembershipPredictsResultPreservation) {
  const MethodCase& c = GetParam();
  Rng rng(c.seed * 77);
  Result<Dataset> data = GenerateByName(c.dataset, c.n, c.dim, rng);
  ASSERT_TRUE(data.ok());
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&*data, &disk, MakeScoring(c.scoring, c.dim)));
  std::unique_ptr<ScoringFunction> scoring_fn = MakeScoring(c.scoring, c.dim);
  const ScoringFunction& scoring = *scoring_fn;

  Vec w(c.dim);
  for (int j = 0; j < c.dim; ++j) w[j] = rng.Uniform(0.2, 0.9);
  Result<GirComputation> fp = engine->ComputeGir(w, c.k, Phase2Method::kFP);
  ASSERT_TRUE(fp.ok());
  std::vector<RecordId> original = ScanTopK(*data, scoring, w, c.k);
  ASSERT_EQ(fp->topk.result, original);

  // Inside probes: walk from the query toward the boundary along random
  // directions (the region is convex, so t in [0, 0.9*t_max] stays in).
  int inside_checked = 0;
  for (int probe = 0; probe < 80; ++probe) {
    Vec dir(c.dim);
    for (int j = 0; j < c.dim; ++j) dir[j] = rng.Uniform(-1.0, 1.0);
    GirRegion::RaySpan span = fp->region.ClipRay(w, dir);
    double t = rng.Uniform(0.0, 0.9 * span.t_max);
    Vec q = AddScaled(w, dir, t);
    if (!fp->region.Contains(q, -1e-9)) continue;  // numerically boundary
    std::vector<RecordId> now = ScanTopK(*data, scoring, q, c.k);
    EXPECT_EQ(now, original) << "inside probe must preserve the result";
    ++inside_checked;
  }
  // Outside probes: random cube points strictly violating the region.
  int outside_checked = 0;
  for (int probe = 0; probe < 200; ++probe) {
    Vec q(c.dim);
    for (int j = 0; j < c.dim; ++j) q[j] = rng.Uniform(0.001, 1.0);
    if (fp->region.Contains(q, 1e-9)) continue;
    std::vector<RecordId> now = ScanTopK(*data, scoring, q, c.k);
    EXPECT_NE(now, original)
        << "outside probe must change the (ordered) result";
    ++outside_checked;
  }
  // The probe mix must actually exercise both sides.
  EXPECT_GT(inside_checked, 5);
  EXPECT_GT(outside_checked, 5);
}

// The n = 5000 cases have enough leaves for FP's per-leaf pools, at
// the dimensionalities where Phase 2 dominates and under the non-linear
// scorings whose leaf planes are transformed before the group test.
INSTANTIATE_TEST_SUITE_P(
    Sweep, GirSemanticsTest,
    ::testing::Values(MethodCase{"IND", 2, 5, 1}, MethodCase{"IND", 3, 10, 2},
                      MethodCase{"IND", 4, 5, 3}, MethodCase{"COR", 3, 8, 4},
                      MethodCase{"ANTI", 3, 5, 5},
                      MethodCase{"ANTI", 4, 10, 6},
                      MethodCase{"IND", 5, 10, 7, 5000},
                      MethodCase{"ANTI", 5, 10, 8, 5000},
                      MethodCase{"IND", 6, 5, 9, 5000},
                      MethodCase{"IND", 4, 10, 10, 5000, "Polynomial"},
                      MethodCase{"IND", 4, 10, 11, 5000, "Mixed"}));

TEST(GirMethodsTest, BruteForceStandaloneMatchesEngine) {
  Rng rng(123);
  Dataset data = GenerateIndependent(300, 3, rng);
  LinearScoring scoring(3);
  Vec w = {0.4, 0.7, 0.5};
  Result<GirRegion> standalone = ComputeGirBruteForce(data, scoring, w, 10);
  ASSERT_TRUE(standalone.ok());
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Result<GirComputation> fp = engine->ComputeGir(w, 10, Phase2Method::kFP);
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(standalone->result(), fp->topk.result);
  for (int probe = 0; probe < 300; ++probe) {
    Vec q = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    EXPECT_EQ(standalone->Contains(q), fp->region.Contains(q));
  }
}

TEST(GirMethodsTest, QueryVectorAlwaysInsideItsGir) {
  Rng rng(321);
  Dataset data = GenerateAnticorrelated(500, 4, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 4)));
  for (int trial = 0; trial < 10; ++trial) {
    Vec w(4);
    for (int j = 0; j < 4; ++j) w[j] = rng.Uniform(0.05, 1.0);
    Result<GirComputation> fp = engine->ComputeGir(w, 7, Phase2Method::kFP);
    ASSERT_TRUE(fp.ok());
    EXPECT_TRUE(fp->region.Contains(w, 1e-12));
  }
}

TEST(GirMethodsTest, NonLinearScoringViaSp) {
  // §7.2: SP supports sum-of-monotone scoring; verify semantics with
  // the Polynomial and Mixed functions.
  Rng rng(55);
  Dataset data = GenerateIndependent(400, 4, rng);
  for (const char* fn : {"Polynomial", "Mixed"}) {
    DiskManager disk;
    auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring(fn, 4)));
    auto scoring = MakeScoring(fn, 4);
    Vec w = {0.6, 0.4, 0.8, 0.5};
    Result<GirComputation> sp = engine->ComputeGir(w, 8, Phase2Method::kSP);
    ASSERT_TRUE(sp.ok()) << fn;
    std::vector<RecordId> original = ScanTopK(data, *scoring, w, 8);
    EXPECT_EQ(sp->topk.result, original) << fn;
    int inside = 0;
    for (int probe = 0; probe < 50; ++probe) {
      Vec dir(4);
      for (int j = 0; j < 4; ++j) dir[j] = rng.Uniform(-1.0, 1.0);
      GirRegion::RaySpan span = sp->region.ClipRay(w, dir);
      Vec q = AddScaled(w, dir, rng.Uniform(0.0, 0.9 * span.t_max));
      if (!sp->region.Contains(q, -1e-9)) continue;
      EXPECT_EQ(ScanTopK(data, *scoring, q, 8), original) << fn;
      ++inside;
    }
    int outside = 0;
    for (int probe = 0; probe < 150; ++probe) {
      Vec q(4);
      for (int j = 0; j < 4; ++j) q[j] = rng.Uniform(0.001, 1.0);
      if (sp->region.Contains(q, 1e-9)) continue;
      EXPECT_NE(ScanTopK(data, *scoring, q, 8), original) << fn;
      ++outside;
    }
    EXPECT_GT(inside, 3) << fn;
    EXPECT_GT(outside, 3) << fn;
  }
}

TEST(GirMethodsTest, FpIoNeverExceedsSp) {
  // The headline claim: FP reads far fewer pages than SP/CP in Phase 2.
  Rng rng(77);
  Dataset data = GenerateAnticorrelated(20000, 4, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 4)));
  double sp_reads = 0;
  double fp_reads = 0;
  for (int trial = 0; trial < 3; ++trial) {
    Vec w(4);
    for (int j = 0; j < 4; ++j) w[j] = rng.Uniform(0.2, 1.0);
    Result<GirComputation> sp = engine->ComputeGir(w, 20, Phase2Method::kSP);
    Result<GirComputation> fp = engine->ComputeGir(w, 20, Phase2Method::kFP);
    ASSERT_TRUE(sp.ok());
    ASSERT_TRUE(fp.ok());
    sp_reads += static_cast<double>(sp->stats.phase2_reads);
    fp_reads += static_cast<double>(fp->stats.phase2_reads);
  }
  EXPECT_LT(fp_reads, sp_reads);
}

TEST(GirMethodsTest, EngineRejectsBadK) {
  Rng rng(88);
  Dataset data = GenerateIndependent(50, 2, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 2)));
  EXPECT_FALSE(engine->ComputeGir(Vec{0.5, 0.5}, 0, Phase2Method::kFP).ok());
  EXPECT_FALSE(engine->ComputeGir(Vec{0.5, 0.5}, 51, Phase2Method::kFP).ok());
}

TEST(GirMethodsTest, MethodNamesRoundTrip) {
  for (Phase2Method m : {Phase2Method::kSP, Phase2Method::kCP,
                         Phase2Method::kFP, Phase2Method::kBruteForce}) {
    Result<Phase2Method> parsed = ParsePhase2Method(Phase2MethodName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(ParsePhase2Method("nope").ok());
}

}  // namespace
}  // namespace gir
