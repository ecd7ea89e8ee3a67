// Shared-traversal batch executor: grouped execution must be bitwise
// identical to per-query fan-out — top-k ids and scores, encountered
// and pending sets, region constraints, per-query charged IoStats —
// over dataset distributions × scoring families × every forced
// GIR_SIMD tier × cache on/off, including exact-duplicate queries
// (answered by replication). Plus: multi-weight kernel tier identity,
// amortization accounting sanity, and the zero-steady-state-allocation
// contract of the frontier arena (global operator-new counter, same
// idiom as lp_workspace_test).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "gir/batch_engine.h"
#include "topk/brs.h"

// ----- global allocation counter -----

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gir {
namespace {

// Clustered query stream with exact duplicates: every `dup_every`-th
// query repeats an archetype center verbatim (the "preset weights"
// shape of a production batch); the rest jitter around the centers.
std::vector<Vec> ClusteredWeights(size_t count, size_t dim,
                                  size_t archetypes, double jitter,
                                  size_t dup_every, Rng& rng) {
  std::vector<Vec> centers;
  for (size_t a = 0; a < archetypes; ++a) {
    Vec c(dim);
    for (size_t j = 0; j < dim; ++j) c[j] = rng.Uniform(0.05, 1.0);
    centers.push_back(std::move(c));
  }
  std::vector<Vec> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Vec& c = centers[i % centers.size()];
    if (dup_every != 0 && i % dup_every == 0) {
      out.push_back(c);
      continue;
    }
    Vec w(dim);
    for (size_t j = 0; j < dim; ++j) {
      w[j] = std::min(1.0, std::max(0.01, c[j] + rng.Gaussian(0.0, jitter)));
    }
    out.push_back(std::move(w));
  }
  return out;
}

void ExpectSameRegion(const GirRegion& a, const GirRegion& b) {
  ASSERT_EQ(a.constraints().size(), b.constraints().size());
  for (size_t i = 0; i < a.constraints().size(); ++i) {
    const GirConstraint& ca = a.constraints()[i];
    const GirConstraint& cb = b.constraints()[i];
    EXPECT_EQ(ca.normal, cb.normal);  // bit-identical doubles
    EXPECT_EQ(ca.provenance.kind, cb.provenance.kind);
    EXPECT_EQ(ca.provenance.position, cb.provenance.position);
    EXPECT_EQ(ca.provenance.challenger, cb.provenance.challenger);
  }
}

void ExpectSameTopK(const TopKResult& a, const TopKResult& b) {
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_EQ(a.encountered, b.encountered);
  EXPECT_EQ(a.io.reads, b.io.reads);
  EXPECT_EQ(a.io.writes, b.io.writes);
  ASSERT_EQ(a.pending.size(), b.pending.size());
  for (size_t p = 0; p < a.pending.size(); ++p) {
    EXPECT_EQ(a.pending[p].maxscore, b.pending[p].maxscore);
    EXPECT_EQ(a.pending[p].page, b.pending[p].page);
    // Same (parent, slot): the same entry of the same tree, so the same
    // resolved box.
    EXPECT_EQ(a.pending[p].parent, b.pending[p].parent);
    EXPECT_EQ(a.pending[p].slot, b.pending[p].slot);
  }
}

void ExpectSameItems(const BatchResult& fanout, const BatchResult& shared) {
  ASSERT_EQ(fanout.items.size(), shared.items.size());
  for (size_t i = 0; i < fanout.items.size(); ++i) {
    const BatchItem& a = fanout.items[i];
    const BatchItem& b = shared.items[i];
    ASSERT_EQ(a.status.ok(), b.status.ok()) << "query " << i;
    if (!a.status.ok()) continue;
    EXPECT_EQ(a.cache, b.cache) << "query " << i;
    EXPECT_EQ(a.topk, b.topk) << "query " << i;
    EXPECT_EQ(a.reads, b.reads) << "query " << i;
    ASSERT_EQ(a.computed.has_value(), b.computed.has_value()) << "query "
                                                              << i;
    if (!a.computed.has_value()) continue;
    ExpectSameTopK(a.computed->topk, b.computed->topk);
    ExpectSameRegion(a.computed->region, b.computed->region);
    EXPECT_EQ(a.computed->stats.topk_reads, b.computed->stats.topk_reads);
    EXPECT_EQ(a.computed->stats.phase2_reads,
              b.computed->stats.phase2_reads);
    EXPECT_EQ(a.computed->stats.candidates, b.computed->stats.candidates);
    EXPECT_EQ(a.computed->stats.constraints, b.computed->stats.constraints);
    EXPECT_EQ(a.computed->snapshot_version, b.computed->snapshot_version);
  }
}

Dataset MakeData(const std::string& name, size_t n, size_t dim,
                 uint64_t seed) {
  Rng rng(seed);
  Result<Dataset> d = GenerateByName(name, n, dim, rng);
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }

 private:
  simd::Tier saved_;
};

// The tentpole property: over distributions × scorings × forced SIMD
// tiers × cache on/off, shared-traversal ComputeBatch must reproduce
// the fan-out path bit for bit (including exact-duplicate replication
// and per-query charged reads).
TEST(BatchSharedTest, SharedMatchesFanoutBitwise) {
  TierGuard guard;
  const size_t n = 900, dim = 3, k = 8;
  const std::vector<std::string> dists = {"IND", "COR", "ANTI"};
  const std::vector<std::string> scorings = {"Linear", "Polynomial", "Mixed"};
  const std::vector<simd::Tier> tiers = {simd::Tier::kScalar,
                                         simd::Tier::kAvx2};
  Rng rng(77);
  for (const std::string& dist : dists) {
    Dataset data = MakeData(dist, n, dim, 1000 + dist.size());
    for (const std::string& scoring : scorings) {
      DiskManager disk;
      auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring(scoring, dim)));
      std::vector<Vec> weights =
          ClusteredWeights(18, dim, 5, 0.02, 6, rng);
      for (simd::Tier want : tiers) {
        if (simd::ForceTier(want) != want) continue;  // unsupported CPU
        for (bool cache_on : {false, true}) {
          BatchOptions fan_opts;
          fan_opts.threads = 2;
          fan_opts.cache_capacity = cache_on ? 64 : 0;
          // Frozen cache during the measured batch, so hit patterns
          // cannot depend on intra-batch scheduling.
          fan_opts.populate_cache = false;
          BatchOptions shared_opts = fan_opts;
          shared_opts.exec.shared_traversal = true;
          shared_opts.exec.group_width = 5;  // multiple ragged groups
          BatchEngine fanout(engine.get(), fan_opts);
          BatchEngine shared(engine.get(), shared_opts);
          if (cache_on) {
            // Identical warm state on both caches: sequential
            // computations inserted directly.
            for (size_t a = 0; a < 3; ++a) {
              Result<GirComputation> gir =
                  engine->ComputeGir(weights[a], k, Phase2Method::kFP);
              ASSERT_TRUE(gir.ok());
              fanout.mutable_cache()->Insert(k, gir->topk.result,
                                             gir->region,
                                             gir->snapshot_version);
              shared.mutable_cache()->Insert(k, gir->topk.result,
                                             gir->region,
                                             gir->snapshot_version);
            }
          }
          Result<BatchResult> a =
              fanout.ComputeBatch(weights, k, Phase2Method::kFP);
          Result<BatchResult> b =
              shared.ComputeBatch(weights, k, Phase2Method::kFP);
          ASSERT_TRUE(a.ok() && b.ok());
          SCOPED_TRACE(dist + "/" + scoring + "/" +
                       simd::TierName(want) +
                       (cache_on ? "/cache" : "/nocache"));
          ExpectSameItems(*a, *b);
          // Mode-independent aggregate accounting.
          EXPECT_EQ(a->stats.total_reads, b->stats.total_reads);
          EXPECT_EQ(b->stats.charged_reads, b->stats.total_reads);
          EXPECT_LE(b->stats.amortized_reads, b->stats.charged_reads);
        }
      }
    }
  }
}

// SP must flow through the shared path identically too (different
// Phase-2 consumer of pending/encountered).
TEST(BatchSharedTest, SharedMatchesFanoutWithSpPhase2) {
  TierGuard guard;
  Dataset data = MakeData("IND", 1200, 4, 5);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 4)));
  Rng rng(9);
  std::vector<Vec> weights = ClusteredWeights(20, 4, 4, 0.03, 5, rng);
  BatchOptions fan_opts;
  fan_opts.threads = 2;
  fan_opts.cache_capacity = 0;
  BatchOptions shared_opts = fan_opts;
  shared_opts.exec.shared_traversal = true;
  shared_opts.exec.group_width = 8;
  BatchEngine fanout(engine.get(), fan_opts);
  BatchEngine shared(engine.get(), shared_opts);
  Result<BatchResult> a = fanout.ComputeBatch(weights, 12, Phase2Method::kSP);
  Result<BatchResult> b = shared.ComputeBatch(weights, 12, Phase2Method::kSP);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectSameItems(*a, *b);
}

// Dedupe accounting: exact twins are computed once and replicated, the
// group/read bookkeeping is consistent, and overlapping traversals pay
// strictly fewer physical reads than they charge.
TEST(BatchSharedTest, DuplicateAndAmortizationAccounting) {
  Dataset data = MakeData("IND", 1500, 3, 11);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Rng rng(13);
  // 24 queries over 4 archetypes, every 3rd an exact center repeat:
  // 8 exact duplicates beyond the first occurrences.
  std::vector<Vec> weights = ClusteredWeights(24, 3, 4, 0.01, 3, rng);
  // Dedupe is bitwise: +0.0 and -0.0 weights are numerically equal but
  // must NOT merge (their regions embed different weight vectors).
  weights.push_back(Vec{0.0, 0.5, 0.5});
  weights.push_back(Vec{-0.0, 0.5, 0.5});
  BatchOptions opts;
  opts.threads = 2;
  opts.cache_capacity = 0;
  opts.exec.shared_traversal = true;
  opts.exec.group_width = 6;
  BatchEngine shared(engine.get(), opts);
  Result<BatchResult> r = shared.ComputeBatch(weights, 10, Phase2Method::kFP);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->stats.failures, 0u);
  // Count unique weight vectors by hand, bitwise (so the ±0.0 pair
  // above counts as two).
  const auto same_bits = [](const Vec& a, const Vec& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  std::vector<Vec> uniq;
  for (const Vec& w : weights) {
    bool seen = false;
    for (const Vec& u : uniq) seen = seen || same_bits(u, w);
    if (!seen) uniq.push_back(w);
  }
  EXPECT_EQ(r->stats.grouped_queries, uniq.size());
  EXPECT_EQ(r->stats.duplicate_hits, weights.size() - uniq.size());
  EXPECT_GT(r->stats.duplicate_hits, 0u);
  EXPECT_EQ(r->stats.shared_groups,
            (uniq.size() + opts.exec.group_width - 1) /
                opts.exec.group_width);
  // Every item answered with identical content for duplicate twins.
  for (size_t i = 0; i < weights.size(); ++i) {
    for (size_t j = i + 1; j < weights.size(); ++j) {
      if (!same_bits(weights[i], weights[j])) continue;
      EXPECT_EQ(r->items[i].topk, r->items[j].topk);
      EXPECT_EQ(r->items[i].reads, r->items[j].reads);
      ASSERT_TRUE(r->items[i].computed.has_value());
      ASSERT_TRUE(r->items[j].computed.has_value());
      ExpectSameTopK(r->items[i].computed->topk, r->items[j].computed->topk);
    }
  }
  // Clustered + duplicated queries overlap heavily: the group walk must
  // have paid strictly fewer physical reads than it charged.
  EXPECT_EQ(r->stats.charged_reads, r->stats.total_reads);
  EXPECT_LT(r->stats.amortized_reads, r->stats.charged_reads);
  EXPECT_GT(r->stats.amortized_reads, 0u);
  EXPECT_GT(r->stats.ReadAmortization(), 1.0);
}

// RunBrsMulti against solo RunBrs directly (executor-level identity,
// without the batch engine around it), on every forced tier.
TEST(BatchSharedTest, RunBrsMultiMatchesSoloRunBrs) {
  TierGuard guard;
  Dataset data = MakeData("COR", 2000, 4, 21);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Polynomial", 4)));
  const FlatRTree& flat = engine->flat_tree();
  Rng rng(31);
  std::vector<Vec> weights = ClusteredWeights(10, 4, 3, 0.02, 0, rng);
  for (simd::Tier want :
       {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (simd::ForceTier(want) != want) continue;
    std::vector<BrsMultiQuery> queries;
    for (const Vec& w : weights) queries.push_back({VecView(w), 7});
    BrsFrontierArena arena;
    std::vector<TopKResult> multi;
    BrsMultiStats stats;
    ASSERT_TRUE(RunBrsMulti(flat, engine->scoring(), queries, &arena, &multi,
                            &stats)
                    .ok());
    uint64_t charged = 0;
    for (size_t q = 0; q < weights.size(); ++q) {
      Result<TopKResult> solo = RunBrs(flat, engine->scoring(), weights[q], 7);
      ASSERT_TRUE(solo.ok());
      SCOPED_TRACE(std::string(simd::TierName(want)) + " query " +
                   std::to_string(q));
      ExpectSameTopK(*solo, multi[q]);
      charged += solo->io.reads;
    }
    EXPECT_EQ(stats.charged_reads, charged);
    EXPECT_LE(stats.unique_reads, charged);
    EXPECT_LT(stats.unique_reads, charged);  // clustered => real sharing
  }
}

// Invalid queries fail the whole executor call up front (the batch
// engine validates before grouping, so callers see per-item statuses).
TEST(BatchSharedTest, RunBrsMultiRejectsMalformedQueries) {
  Dataset data = MakeData("IND", 200, 3, 3);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  const FlatRTree& flat = engine->flat_tree();
  Vec good(3, 0.5);
  Vec bad(2, 0.5);
  BrsFrontierArena arena;
  std::vector<TopKResult> out;
  std::vector<BrsMultiQuery> zero_k = {{VecView(good), 0}};
  EXPECT_FALSE(RunBrsMulti(flat, engine->scoring(), zero_k, &arena, &out)
                   .ok());
  std::vector<BrsMultiQuery> wrong_dim = {{VecView(bad), 5}};
  EXPECT_FALSE(RunBrsMulti(flat, engine->scoring(), wrong_dim, &arena, &out)
                   .ok());
}

// The multi-weight plane kernel is bitwise equal to the per-query Axpy
// on every dispatch tier.
TEST(BatchSharedTest, MaxDotPlaneMultiMatchesAxpyAcrossTiers) {
  TierGuard guard;
  Rng rng(41);
  const size_t m = 7, n = 53;
  std::vector<double> w(m), plane(n);
  for (double& x : w) x = rng.Uniform(0.0, 1.0);
  for (double& x : plane) x = rng.Uniform(0.0, 1.0);
  // Scalar-tier per-row reference.
  ASSERT_EQ(simd::ForceTier(simd::Tier::kScalar), simd::Tier::kScalar);
  std::vector<double> want(m * n, 0.25);
  for (size_t r = 0; r < m; ++r) {
    simd::Axpy(w[r], plane.data(), want.data() + r * n, n);
  }
  for (simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (simd::ForceTier(t) != t) continue;
    std::vector<double> got(m * n, 0.25);
    simd::MaxDotPlaneMulti(w.data(), m, plane.data(), got.data(), n, n);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << simd::TierName(t) << " lane " << i;
    }
  }
}

// Frontier arena: once warmed on a workload shape, repeated groups
// perform zero heap allocations (the LpWorkspace discipline), for both
// the identity transform and a transforming scoring.
TEST(BatchSharedTest, FrontierArenaZeroSteadyStateAllocation) {
  for (const char* scoring_name : {"Linear", "Polynomial"}) {
    Dataset data = MakeData("IND", 1500, 3, 17);
    DiskManager disk;
    auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring(scoring_name, 3)));
    const FlatRTree& flat = engine->flat_tree();
    Rng rng(19);
    std::vector<Vec> weights = ClusteredWeights(8, 3, 2, 0.015, 0, rng);
    std::vector<BrsMultiQuery> queries;
    for (const Vec& w : weights) queries.push_back({VecView(w), 10});
    BrsFrontierArena arena;
    std::vector<TopKResult> out;
    // Warm-up sizes every pooled buffer and the retained output.
    ASSERT_TRUE(
        RunBrsMulti(flat, engine->scoring(), queries, &arena, &out).ok());
    const size_t grow_after_warmup = arena.grow_events;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int rep = 0; rep < 5; ++rep) {
      Status st = RunBrsMulti(flat, engine->scoring(), queries, &arena, &out);
      if (!st.ok()) FAIL();
    }
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << scoring_name;
    EXPECT_EQ(arena.grow_events, grow_after_warmup) << scoring_name;
  }
}

}  // namespace
}  // namespace gir
