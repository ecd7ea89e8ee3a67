// Applications built on the GIR: LIR projection, MAH box, sensitivity
// (volume ratio) and the GIR-based result cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/sharded_cache.h"
#include "gir/engine.h"
#include "gir/sensitivity.h"
#include "gir/visualization.h"

namespace gir {
namespace {

std::vector<RecordId> ScanTopK(const Dataset& data,
                               const ScoringFunction& scoring, VecView w,
                               size_t k) {
  std::vector<RecordId> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](RecordId a, RecordId b) {
    return scoring.Score(data.Get(a), w) > scoring.Score(data.Get(b), w);
  });
  ids.resize(k);
  return ids;
}

class ToolsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(404);
    data_ = GenerateIndependent(500, 3, rng);
    engine_ = OpenEngineOrDie(
        EngineConfig::FromDataset(&data_, &disk_, MakeScoring("Linear", 3)));
    w_ = {0.6, 0.5, 0.7};
    Result<GirComputation> gir =
        engine_->ComputeGir(w_, 8, Phase2Method::kFP);
    ASSERT_TRUE(gir.ok());
    gir_ = std::make_unique<GirComputation>(std::move(*gir));
  }

  Dataset data_{3};
  DiskManager disk_;
  std::unique_ptr<GirEngine> engine_;
  Vec w_;
  std::unique_ptr<GirComputation> gir_;
};

TEST_F(ToolsFixture, LirsContainQueryAndPreserveResult) {
  LinearScoring scoring(3);
  std::vector<WeightRange> lirs = ComputeLirs(gir_->region);
  ASSERT_EQ(lirs.size(), 3u);
  std::vector<RecordId> original = ScanTopK(data_, scoring, w_, 8);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_LE(lirs[j].lo, w_[j]);
    EXPECT_GE(lirs[j].hi, w_[j]);
    // Endpoints (nudged inward) preserve the result; nudged outward
    // they change it (maximality of the LIR).
    for (double endpoint : {lirs[j].lo, lirs[j].hi}) {
      double inward = endpoint < w_[j] ? 1e-6 : -1e-6;
      Vec q = w_;
      q[j] = endpoint + inward;
      EXPECT_EQ(ScanTopK(data_, scoring, q, 8), original) << "dim " << j;
      if (endpoint > 1e-4 && endpoint < 1.0 - 1e-4) {
        q[j] = endpoint - 1e-5 * (inward > 0 ? 1.0 : -1.0) * 50;
        // Just outside the LIR: the ordered result must differ.
        q[j] = endpoint - inward * 50;
        EXPECT_NE(ScanTopK(data_, scoring, q, 8), original) << "dim " << j;
      }
    }
  }
}

TEST_F(ToolsFixture, ProjectionAtShiftedPointStaysInside) {
  // Shift the query inside the GIR and re-project (the "interactive
  // projection" of §7.3).
  std::vector<WeightRange> lirs = ComputeLirs(gir_->region);
  Vec q = w_;
  q[0] = 0.5 * (w_[0] + lirs[0].hi);  // still inside dimension-0 range
  std::vector<WeightRange> reproj = ProjectOntoRegion(gir_->region, q);
  ASSERT_EQ(reproj.size(), 3u);
  EXPECT_LE(reproj[0].lo, q[0]);
  EXPECT_GE(reproj[0].hi, q[0]);
  // Outside point: empty ranges.
  Vec out(3, 0.0);
  out[0] = 1.0;  // on the cube corner, outside the cone generically
  if (!gir_->region.Contains(out)) {
    std::vector<WeightRange> none = ProjectOntoRegion(gir_->region, out);
    EXPECT_EQ(none[0].lo, 0.0);
    EXPECT_EQ(none[0].hi, 0.0);
  }
}

TEST_F(ToolsFixture, MahInsideRegionAndContainsQuery) {
  MahBox box = ComputeMah(gir_->region);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_LE(box.lo[j], w_[j] + 1e-12);
    EXPECT_GE(box.hi[j], w_[j] - 1e-12);
  }
  EXPECT_GT(box.Volume(), 0.0);
  // Every corner of the MAH lies inside the region.
  for (int mask = 0; mask < 8; ++mask) {
    Vec corner(3);
    for (int j = 0; j < 3; ++j) {
      corner[j] = (mask >> j) & 1 ? box.hi[j] : box.lo[j];
    }
    EXPECT_TRUE(gir_->region.Contains(corner, 1e-9)) << "mask " << mask;
  }
  // The MAH is inside the GIR, so its volume cannot exceed it.
  EXPECT_LE(box.Volume(), gir_->region.polytope().Volume() + 1e-9);
}

TEST_F(ToolsFixture, MahFacewiseMaximal) {
  // No face can be pushed further without leaving the region.
  MahBox box = ComputeMah(gir_->region);
  const double step = 1e-4;
  for (int j = 0; j < 3; ++j) {
    for (int side = 0; side < 2; ++side) {
      MahBox bigger = box;
      if (side == 0) {
        bigger.hi[j] = std::min(1.0, box.hi[j] + step);
      } else {
        bigger.lo[j] = std::max(0.0, box.lo[j] - step);
      }
      if (bigger.hi[j] == box.hi[j] && bigger.lo[j] == box.lo[j]) continue;
      bool all_inside = true;
      for (int mask = 0; mask < 8 && all_inside; ++mask) {
        Vec corner(3);
        for (int b = 0; b < 3; ++b) {
          corner[b] = (mask >> b) & 1 ? bigger.hi[b] : bigger.lo[b];
        }
        all_inside = gir_->region.Contains(corner, 1e-12);
      }
      EXPECT_FALSE(all_inside) << "face " << j << "/" << side
                               << " was not maximal";
    }
  }
}

TEST_F(ToolsFixture, VolumeRatioModesAgree) {
  Rng rng(1);
  double exact = VolumeRatio(gir_->region, VolumeMode::kExact, rng);
  double mc = VolumeRatio(gir_->region, VolumeMode::kMonteCarloCube, rng,
                          400000);
  double mc_box =
      VolumeRatio(gir_->region, VolumeMode::kMonteCarloBox, rng, 400000);
  double automatic = VolumeRatioAuto(gir_->region, rng);
  EXPECT_GT(exact, 0.0);
  EXPECT_NEAR(mc, exact, 0.01);
  EXPECT_NEAR(mc_box, exact, 0.01);
  EXPECT_NEAR(automatic, exact, 1e-12);
}

TEST(SensitivityTest, LargerKGivesSmallerRegion) {
  Rng rng(777);
  Dataset data = GenerateIndependent(2000, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Vec w = {0.5, 0.6, 0.7};
  double prev = 1.0;
  for (size_t k : {5, 20, 60}) {
    Result<GirComputation> gir = engine->ComputeGir(w, k, Phase2Method::kFP);
    ASSERT_TRUE(gir.ok());
    Rng mc(k);
    double ratio = VolumeRatioAuto(gir->region, mc);
    EXPECT_LT(ratio, prev + 1e-12) << "k=" << k;
    prev = ratio;
  }
}

TEST(CacheTest, ExactHitInsideGir) {
  Rng rng(99);
  Dataset data = GenerateIndependent(800, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Vec w = {0.5, 0.5, 0.5};
  Result<GirComputation> gir = engine->ComputeGir(w, 10, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  ShardedGirCache cache;
  cache.Insert(10, gir->topk.result, gir->region);

  // The query itself: exact hit.
  ShardedGirCache::Lookup hit = cache.Probe(w, 10);
  EXPECT_EQ(hit.kind, ShardedGirCache::HitKind::kExact);
  EXPECT_EQ(hit.records, gir->topk.result);

  // Smaller k: exact prefix.
  ShardedGirCache::Lookup prefix = cache.Probe(w, 3);
  EXPECT_EQ(prefix.kind, ShardedGirCache::HitKind::kExact);
  EXPECT_EQ(prefix.records,
            std::vector<RecordId>(gir->topk.result.begin(),
                                  gir->topk.result.begin() + 3));

  // Larger k: partial (progressive reporting).
  ShardedGirCache::Lookup partial = cache.Probe(w, 20);
  EXPECT_EQ(partial.kind, ShardedGirCache::HitKind::kPartial);
  EXPECT_EQ(partial.records, gir->topk.result);

  // A far-away vector: miss.
  Vec far = {0.95, 0.02, 0.03};
  if (!gir->region.Contains(far)) {
    EXPECT_EQ(cache.Probe(far, 10).kind,
              ShardedGirCache::HitKind::kMiss);
  }
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.partial_hits(), 1u);
  EXPECT_GE(cache.misses(), 1u);
}

TEST(CacheTest, HitsAreCorrectAnswers) {
  // Any probe the cache answers must agree with a fresh computation.
  Rng rng(123);
  Dataset data = GenerateIndependent(600, 2, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 2)));
  LinearScoring scoring(2);
  ShardedGirCache cache;
  int verified_hits = 0;
  for (int i = 0; i < 60; ++i) {
    Vec q = {rng.Uniform(0.05, 1.0), rng.Uniform(0.05, 1.0)};
    ShardedGirCache::Lookup lk = cache.Probe(q, 10);
    if (lk.kind == ShardedGirCache::HitKind::kExact) {
      EXPECT_EQ(lk.records, ScanTopK(data, scoring, q, 10));
      ++verified_hits;
      continue;
    }
    Result<GirComputation> gir = engine->ComputeGir(q, 10, Phase2Method::kFP);
    ASSERT_TRUE(gir.ok());
    cache.Insert(10, gir->topk.result, gir->region);
  }
  // With 60 clustered probes in 2-D some hits must have occurred.
  EXPECT_GT(verified_hits + static_cast<int>(cache.partial_hits()), 0);
}

TEST(VisualizationTest, UnconstrainedRegionGivesFullRangesAndCube) {
  // A GIR with no data constraints (k records = whole dataset): the
  // LIRs span [0,1] and the MAH fills the cube.
  GirRegion region(3, Vec{0.4, 0.5, 0.6}, {0});
  std::vector<WeightRange> lirs = ComputeLirs(region);
  for (const WeightRange& r : lirs) {
    EXPECT_DOUBLE_EQ(r.lo, 0.0);
    EXPECT_DOUBLE_EQ(r.hi, 1.0);
  }
  MahBox box = ComputeMah(region);
  EXPECT_NEAR(box.Volume(), 1.0, 1e-9);
}

TEST(VisualizationTest, MahInFourDimensions) {
  Rng rng(808);
  Dataset data = GenerateIndependent(1200, 4, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 4)));
  Vec w = {0.5, 0.6, 0.4, 0.7};
  Result<GirComputation> gir = engine->ComputeGir(w, 6, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  MahBox box = ComputeMah(gir->region);
  EXPECT_GT(box.Volume(), 0.0);
  for (int mask = 0; mask < 16; ++mask) {
    Vec corner(4);
    for (int j = 0; j < 4; ++j) {
      corner[j] = (mask >> j) & 1 ? box.hi[j] : box.lo[j];
    }
    EXPECT_TRUE(gir->region.Contains(corner, 1e-9));
  }
}

TEST(CacheTest, MoveToFrontKeepsHotEntriesResident) {
  ShardedGirCache cache(2, 1);
  GirRegion wide(2, Vec{0.5, 0.5}, {1});  // no constraints: whole cube
  cache.Insert(1, {1}, wide);
  // The wide entry covers every query at k = 1, so the later entries
  // use k = 2 (a covered insert at the same k is skipped as a
  // duplicate).
  GirRegion narrow(2, Vec{0.9, 0.1}, {2, 4});
  ConstraintProvenance prov;
  narrow.AddConstraint(Vec{1.0, -5.0}, prov);  // excludes most of cube
  cache.Insert(2, {2, 4}, narrow);
  // Touch the wide entry so it moves to the front...
  EXPECT_EQ(cache.Probe(Vec{0.5, 0.5}, 1).kind,
            ShardedGirCache::HitKind::kExact);
  // ...then overflow: the narrow entry (now LRU) must be evicted.
  GirRegion third(2, Vec{0.5, 0.5}, {3, 5});
  cache.Insert(2, {3, 5}, third);
  EXPECT_EQ(cache.size(), 2u);
  // The wide entry still answers.
  ShardedGirCache::Lookup hit = cache.Probe(Vec{0.4, 0.6}, 1);
  EXPECT_NE(hit.kind, ShardedGirCache::HitKind::kMiss);
}

TEST(CacheTest, LruEviction) {
  ShardedGirCache cache(2, 1);
  // Growing k, so no insert is skipped as a duplicate of a covering
  // entry.
  GirRegion r1(2, Vec{0.5, 0.5}, {1});
  GirRegion r2(2, Vec{0.5, 0.5}, {1, 2});
  GirRegion r3(2, Vec{0.5, 0.5}, {1, 2, 3});
  cache.Insert(1, {1}, r1);
  cache.Insert(2, {1, 2}, r2);
  cache.Insert(3, {1, 2, 3}, r3);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace gir
