// Approximate GIR for general (non-sum-decomposable) scoring functions
// (§7.2): validated against the exact machinery on linear scoring, and
// against brute-force oracles on the genuinely non-convex Min scoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/approx.h"
#include "gir/engine.h"
#include "gir/sensitivity.h"
#include "storage/snapshot_store.h"

namespace gir {
namespace {

std::vector<RecordId> ScanTopKGeneral(const Dataset& data,
                                      const GeneralScoringFunction& fn,
                                      VecView q, size_t k) {
  std::vector<RecordId> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](RecordId a, RecordId b) {
    return fn.Score(data.Get(a), q) > fn.Score(data.Get(b), q);
  });
  ids.resize(k);
  return ids;
}

TEST(MinScoringTest, ScoreIsWorstDimension) {
  MinScoring fn(3);
  EXPECT_DOUBLE_EQ(fn.Score(Vec{0.5, 0.9, 0.8}, Vec{1.0, 0.5, 0.25}),
                   0.2);  // min(0.5, 0.45, 0.2)
  Mbb box{{0.2, 0.2, 0.2}, {0.9, 0.8, 0.8}};
  EXPECT_DOUBLE_EQ(fn.MaxScore(box, Vec{1.0, 1.0, 1.0}), 0.8);
}

TEST(GeneralTopKTest, MatchesLinearScanForMinScoring) {
  Rng rng(41);
  Dataset data = GenerateIndependent(3000, 3, rng);
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  MinScoring fn(3);
  for (int trial = 0; trial < 5; ++trial) {
    Vec q = {rng.Uniform(0.2, 1.0), rng.Uniform(0.2, 1.0),
             rng.Uniform(0.2, 1.0)};
    Result<std::vector<RecordId>> got = GeneralTopK(tree, fn, q, 10);
    ASSERT_TRUE(got.ok());
    std::vector<RecordId> want = ScanTopKGeneral(data, fn, q, 10);
    ASSERT_EQ(got->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(fn.Score(data.Get((*got)[i]), q),
                  fn.Score(data.Get(want[i]), q), 1e-12);
    }
  }
}

TEST(GeneralTopKTest, AdapterMatchesBrs) {
  Rng rng(42);
  Dataset data = GenerateIndependent(2000, 4, rng);
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  GeneralFromDecomposable fn(MakeScoring("Linear", 4));
  LinearScoring linear(4);
  Vec q = {0.4, 0.7, 0.5, 0.9};
  Result<std::vector<RecordId>> a = GeneralTopK(tree, fn, q, 15);
  Result<TopKResult> b = RunBrs(tree, linear, q, 15);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, b->result);
}

TEST(ApproxGirTest, AgreesWithExactGirOnLinearScoring) {
  Rng rng(43);
  Dataset data = GenerateIndependent(1500, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Vec q = {0.5, 0.6, 0.7};
  const size_t k = 8;
  Result<GirComputation> exact = engine->ComputeGir(q, k, Phase2Method::kFP);
  ASSERT_TRUE(exact.ok());

  GeneralFromDecomposable fn(MakeScoring("Linear", 3));
  ApproxGirOptions opt;
  opt.rays = 40;
  opt.probability_samples = 500;
  Result<ApproxGir> approx =
      ApproxGir::Compute(*engine->PinIndex().flat, fn, q, k, opt);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx->result(), exact->topk.result);

  // Boundary points found by bisection lie inside the exact GIR (they
  // are the last preserved point on each ray), within bisection slack.
  for (const Vec& b : approx->boundary_points()) {
    EXPECT_TRUE(exact->region.Contains(b, 1e-4));
  }
  // The approximate minimum boundary distance matches the exact STB
  // radius: both are the distance from q to the nearest region facet
  // (ray sampling overestimates slightly; bisection underestimates).
  double stb = StbRadius(exact->region);
  EXPECT_GE(approx->min_boundary_distance(), stb - 1e-3);
  EXPECT_LE(approx->min_boundary_distance(), 6.0 * stb + 0.05);
  // Preserved probability tracks the exact volume ratio.
  double ratio = exact->region.polytope().Volume();
  EXPECT_NEAR(approx->preserved_probability(), ratio,
              0.05 + 3.0 * std::sqrt(ratio * (1 - ratio) / 500));
}

// An engine opened from an arena file has no master tree; the approximate
// GIR runs on its pinned frozen image and must match the heap-frozen
// engine the arena was written from.
TEST(ApproxGirTest, ArenaEngineMatchesHeapEngine) {
  Rng rng(47);
  Dataset data = GenerateIndependent(900, 3, rng);
  DiskManager heap_disk;
  auto heap = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &heap_disk, MakeScoring("Linear", 3)));
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "approx_arena").string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(SnapshotStore(dir).WriteArena(heap->flat_tree(), 0).ok());
  DiskManager mmap_disk;
  auto mapped = OpenEngineOrDie(
      EngineConfig::FromArena(dir, &mmap_disk, MakeScoring("Linear", 3)));
  ASSERT_FALSE(mapped->has_master_tree());

  MinScoring fn(3);
  Vec q = {0.6, 0.5, 0.8};
  ApproxGirOptions opt;
  opt.rays = 16;
  opt.probability_samples = 50;
  GirEngine::PinnedIndex heap_pin = heap->PinIndex();
  GirEngine::PinnedIndex mapped_pin = mapped->PinIndex();
  Result<ApproxGir> want = ApproxGir::Compute(*heap_pin.flat, fn, q, 6, opt);
  Result<ApproxGir> got = ApproxGir::Compute(*mapped_pin.flat, fn, q, 6, opt);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->result(), want->result());
  EXPECT_EQ(got->boundary_points(), want->boundary_points());
  EXPECT_EQ(got->preserved_probability(), want->preserved_probability());
  std::filesystem::remove_all(dir);
}

TEST(ApproxGirTest, OracleSemanticsForMinScoring) {
  Rng rng(44);
  Dataset data = GenerateIndependent(800, 3, rng);
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  MinScoring fn(3);
  Vec q = {0.6, 0.5, 0.8};
  ApproxGirOptions opt;
  opt.rays = 24;
  opt.probability_samples = 100;
  Result<ApproxGir> approx = ApproxGir::Compute(tree, fn, q, 6, opt);
  ASSERT_TRUE(approx.ok());
  // The oracle agrees with a brute-force recomputation everywhere.
  for (int probe = 0; probe < 30; ++probe) {
    Vec p = {rng.Uniform(0.05, 1.0), rng.Uniform(0.05, 1.0),
             rng.Uniform(0.05, 1.0)};
    bool preserved = approx->PreservedAt(p);
    EXPECT_EQ(preserved,
              ScanTopKGeneral(data, fn, p, 6) == approx->result());
  }
  // Every reported boundary point preserves the result; nudging it
  // outward along its ray by the bisection slack flips it (unless the
  // boundary was the cube wall).
  EXPECT_FALSE(approx->boundary_points().empty());
  EXPECT_GT(approx->min_boundary_distance(), 0.0);
  EXPECT_GE(approx->mean_boundary_distance(),
            approx->min_boundary_distance());
  for (const Vec& b : approx->boundary_points()) {
    EXPECT_TRUE(approx->PreservedAt(b));
  }
}

TEST(ApproxGirTest, ScaleInvarianceOfMinScoringRegion) {
  // Min scoring is positively homogeneous in q, so preservation is
  // invariant along rays through the origin — the immutable region is
  // a cone, just like the linear case. Check it via the oracle.
  Rng rng(45);
  Dataset data = GenerateIndependent(600, 2, rng);
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  MinScoring fn(2);
  Vec q = {0.8, 0.5};
  Result<ApproxGir> approx = ApproxGir::Compute(tree, fn, q, 5);
  ASSERT_TRUE(approx.ok());
  for (double scale : {0.3, 0.6, 1.2}) {
    Vec q2 = Scale(q, scale);
    if (q2[0] <= 1.0 && q2[1] <= 1.0) {
      EXPECT_TRUE(approx->PreservedAt(q2)) << "scale " << scale;
    }
  }
}

TEST(ApproxGirTest, RejectsDimensionMismatch) {
  Rng rng(46);
  Dataset data = GenerateIndependent(100, 3, rng);
  DiskManager disk;
  RTree source = RTree::BulkLoad(&data, &disk);
  FlatRTree tree = FlatRTree::Freeze(source);
  MinScoring fn(3);
  EXPECT_FALSE(ApproxGir::Compute(tree, fn, Vec{0.5, 0.5}, 5).ok());
}

}  // namespace
}  // namespace gir
