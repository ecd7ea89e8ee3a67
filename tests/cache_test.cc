// ShardedGirCache behavior: exact and partial containment hits, LRU
// eviction order (GirCacheTest runs one shard, a single LRU list), and
// concurrent integrity under a multi-threaded hammer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gir/sharded_cache.h"

namespace gir {
namespace {

// A region bounded by a single half-space normal·q >= 0 (plus the unit
// cube GirRegion always intersects with).
GirRegion HalfPlaneRegion(Vec query, Vec normal,
                          std::vector<RecordId> result) {
  const size_t dim = query.size();
  GirRegion region(dim, std::move(query), std::move(result));
  ConstraintProvenance prov;
  prov.kind = ConstraintProvenance::Kind::kOvertake;
  prov.position = 0;
  prov.challenger = 0;
  region.AddConstraint(std::move(normal), prov);
  return region;
}

// The whole unit cube: contains every valid query vector.
GirRegion CubeRegion(Vec query, std::vector<RecordId> result) {
  const size_t dim = query.size();
  return GirRegion(dim, std::move(query), std::move(result));
}

TEST(GirCacheTest, ExactHitReturnsPrefix) {
  ShardedGirCache cache(8, 1);
  Vec q = {0.5, 0.5};
  cache.Insert(5, {11, 22, 33, 44, 55}, CubeRegion(q, {11, 22, 33, 44, 55}));
  ShardedGirCache::Lookup hit = cache.Probe(q, 3);
  EXPECT_EQ(hit.kind, ShardedGirCache::HitKind::kExact);
  EXPECT_EQ(hit.records, (std::vector<RecordId>{11, 22, 33}));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(GirCacheTest, PartialHitReturnsWholeCachedResult) {
  ShardedGirCache cache(8, 1);
  Vec q = {0.5, 0.5};
  cache.Insert(5, {11, 22, 33, 44, 55}, CubeRegion(q, {11, 22, 33, 44, 55}));
  // Requested k exceeds the cached k: the cached records are the exact
  // first 5 of the true top-8 and come back as a kPartial prefix.
  ShardedGirCache::Lookup hit = cache.Probe(q, 8);
  EXPECT_EQ(hit.kind, ShardedGirCache::HitKind::kPartial);
  EXPECT_EQ(hit.records, (std::vector<RecordId>{11, 22, 33, 44, 55}));
  EXPECT_EQ(cache.partial_hits(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(GirCacheTest, MissOutsideRegion) {
  ShardedGirCache cache(8, 1);
  // Region {q0 >= q1} does not contain (0.1, 0.9).
  cache.Insert(3, {1, 2, 3}, HalfPlaneRegion({0.9, 0.1}, {1.0, -1.0}, {1, 2, 3}));
  ShardedGirCache::Lookup hit = cache.Probe(Vec{0.1, 0.9}, 3);
  EXPECT_EQ(hit.kind, ShardedGirCache::HitKind::kMiss);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(GirCacheTest, LruEvictionRespectsProbeRecency) {
  ShardedGirCache cache(2, 1);
  Vec qa = {0.9, 0.1};  // in region A = {q0 >= q1}
  Vec qb = {0.1, 0.9};  // in region B = {q1 >= q0}
  cache.Insert(1, {100}, HalfPlaneRegion(qa, {1.0, -1.0}, {100}));
  cache.Insert(1, {200}, HalfPlaneRegion(qb, {-1.0, 1.0}, {200}));
  // Touch A: it becomes MRU even though it was inserted first.
  EXPECT_EQ(cache.Probe(qa, 1).kind, ShardedGirCache::HitKind::kExact);
  // Region C = {q0 == q1}: contains neither qa nor qb, so the probes
  // below can only hit A or B.
  GirRegion c = HalfPlaneRegion({0.5, 0.5}, {1.0, -1.0}, {300});
  ConstraintProvenance prov;
  c.AddConstraint({-1.0, 1.0}, prov);
  // A covers C's query at k = 1, so C is inserted at k = 2 (a covered
  // insert at the same k is skipped as a duplicate).
  cache.Insert(2, {300, 301}, std::move(c));
  ASSERT_EQ(cache.size(), 2u);
  // B was LRU and must be gone; A must have survived.
  EXPECT_EQ(cache.Probe(qb, 1).kind, ShardedGirCache::HitKind::kMiss);
  ShardedGirCache::Lookup a = cache.Probe(qa, 1);
  ASSERT_EQ(a.kind, ShardedGirCache::HitKind::kExact);
  EXPECT_EQ(a.records, (std::vector<RecordId>{100}));
}

TEST(GirCacheTest, CapacityBound) {
  ShardedGirCache cache(4, 1);
  // Growing k: each cube region is a new entry, not a duplicate of one
  // that already covers the query.
  std::vector<RecordId> result;
  for (int i = 0; i < 20; ++i) {
    result.push_back(i);
    cache.Insert(result.size(), result, CubeRegion({0.5, 0.5}, result));
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(cache.size(), 4u);
}

TEST(ShardedCacheTest, MatchesSingleThreadedSemantics) {
  ShardedGirCache cache(32, 4);
  Vec q = {0.5, 0.5};
  cache.Insert(5, {11, 22, 33, 44, 55}, CubeRegion(q, {11, 22, 33, 44, 55}));
  ShardedGirCache::Lookup exact = cache.Probe(q, 3);
  EXPECT_EQ(exact.kind, ShardedGirCache::HitKind::kExact);
  EXPECT_EQ(exact.records, (std::vector<RecordId>{11, 22, 33}));
  ShardedGirCache::Lookup partial = cache.Probe(q, 8);
  EXPECT_EQ(partial.kind, ShardedGirCache::HitKind::kPartial);
  EXPECT_EQ(partial.records, (std::vector<RecordId>{11, 22, 33, 44, 55}));
  // Outside the cube.
  ShardedGirCache::Lookup miss = cache.Probe(Vec{2.0, 2.0}, 3);
  EXPECT_EQ(miss.kind, ShardedGirCache::HitKind::kMiss);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.partial_hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ShardedCacheTest, ProbeScansAllShards) {
  ShardedGirCache cache(64, 8);
  // The probe vector hashes to a different home shard than the insert
  // query, so the hit must come from the cross-shard scan.
  cache.Insert(2, {7, 8}, HalfPlaneRegion({0.9, 0.1}, {1.0, -1.0}, {7, 8}));
  ShardedGirCache::Lookup hit = cache.Probe(Vec{0.8, 0.2}, 2);
  ASSERT_EQ(hit.kind, ShardedGirCache::HitKind::kExact);
  EXPECT_EQ(hit.records, (std::vector<RecordId>{7, 8}));
}

TEST(ShardedCacheTest, ExactEntryPreferredOverEarlierPartial) {
  ShardedGirCache cache(64, 8);
  std::vector<RecordId> big(20);
  for (int i = 0; i < 20; ++i) big[i] = 100 + i;
  Vec q = {0.51, 0.49, 0.5};
  // A k=20 entry exists (inserted first, under a different query vector
  // and possibly a different shard); a shorter k=5 entry sits closer to
  // the probe in scan order. The probe must still find the exact one.
  cache.Insert(20, big, CubeRegion({0.3, 0.3, 0.3}, big));
  cache.Insert(5, {1, 2, 3, 4, 5}, CubeRegion(q, {1, 2, 3, 4, 5}));
  ShardedGirCache::Lookup hit = cache.Probe(q, 10);
  ASSERT_EQ(hit.kind, ShardedGirCache::HitKind::kExact);
  EXPECT_EQ(hit.records,
            std::vector<RecordId>(big.begin(), big.begin() + 10));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.partial_hits(), 0u);
}

TEST(ShardedCacheTest, CapacitySpreadAcrossShards) {
  ShardedGirCache cache(16, 4);
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    Vec q = {rng.Uniform(), rng.Uniform()};
    // Strictly growing k defeats the covered-query insert dedupe, so
    // every insert lands and the eviction path actually runs.
    const size_t k = static_cast<size_t>(i + 1);
    std::vector<RecordId> result(k, 0);
    result[0] = i;
    cache.Insert(k, std::move(result), CubeRegion(q, {i}));
  }
  // Per-shard LRU holds every shard at ceil(16/4) = 4 entries.
  EXPECT_EQ(cache.size(), 16u);
}

// Concurrent hammer: writers insert checksummed entries while readers
// probe; any hit must return an intact (never torn or interleaved)
// record vector, and the stats must account for every probe.
TEST(ShardedCacheTest, ConcurrentHammerKeepsEntriesIntact) {
  ShardedGirCache cache(64, 8);
  const int kThreads = 4;
  const int kOpsPerThread = 400;
  std::atomic<uint64_t> probes{0};
  std::atomic<int> corrupt{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        Vec q = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
        RecordId a = static_cast<RecordId>(t * kOpsPerThread + i);
        RecordId b = static_cast<RecordId>(rng.UniformInt(1 << 20));
        // k grows within each thread, so the insert dedupe cannot
        // swallow a thread's own inserts and the shards keep churning
        // through push_front/evict under contention. result[2]
        // checksums the first two entries; the rest is filler up to the
        // declared k.
        const size_t k =
            static_cast<size_t>(3 + t + kThreads * i);  // unique, growing
        std::vector<RecordId> result(k, 0);
        result[0] = a;
        result[1] = b;
        result[2] = a + b;
        cache.Insert(k, std::move(result), CubeRegion(q, {a}));
        Vec probe = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
        ShardedGirCache::Lookup hit = cache.Probe(probe, 3);
        probes.fetch_add(1);
        if (hit.kind != ShardedGirCache::HitKind::kMiss) {
          if (hit.records.size() != 3 ||
              hit.records[2] != hit.records[0] + hit.records[1]) {
            corrupt.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(corrupt.load(), 0);
  // Far more inserts land than fit: eviction must have kept every
  // shard at its bound.
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.hits() + cache.partial_hits() + cache.misses(),
            probes.load());
}

}  // namespace
}  // namespace gir
