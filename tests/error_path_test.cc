// Degradation contract under storage faults and malformed queries,
// across forced SIMD tiers: faults surface as explicit Status values at
// every layer (solo ComputeGir, shared-traversal RunBrsMulti,
// BatchEngine with retries), healthy queries in a faulted group are
// bit-identical to a fault-free run, retries salvage transient faults
// within the deadline budget, and exhausted budgets degrade to terminal
// kUnavailable items — never silent drops or wrong answers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "gir/batch_engine.h"
#include "gir/engine.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "topk/scoring.h"

namespace gir {
namespace {

constexpr uint64_t kDataSeed = 404;
constexpr size_t kDim = 3;
constexpr size_t kK = 8;

class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }

 private:
  simd::Tier saved_;
};

Dataset FreshData(size_t n = 400) {
  Rng rng(kDataSeed);
  auto data = GenerateByName("IND", n, kDim, rng);
  EXPECT_TRUE(data.ok());
  return std::move(*data);
}

std::vector<Vec> SpreadWeights(size_t m) {
  std::vector<Vec> weights;
  Rng rng(777);
  for (size_t i = 0; i < m; ++i) {
    Vec w(kDim);
    double sum = 0.0;
    for (size_t j = 0; j < kDim; ++j) {
      w[j] = 0.05 + rng.Uniform();
      sum += w[j];
    }
    for (size_t j = 0; j < kDim; ++j) w[j] /= sum;
    weights.push_back(std::move(w));
  }
  return weights;
}

TEST(ErrorPathTest, SoloComputeSurfacesInjectedFaultAsUnavailable) {
  Dataset data = FreshData();
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", kDim)));

  FaultPlan plan;
  plan.seed = 8;
  plan.read_error_rate = 1.0;
  FaultInjector fi(plan);
  disk.AttachFaultInjector(&fi);
  const Vec w = {0.5, 0.3, 0.2};
  auto gir = engine->ComputeGir(w, kK, Phase2Method::kFP);
  ASSERT_FALSE(gir.ok());
  EXPECT_EQ(gir.status().code(), StatusCode::kUnavailable);

  // Detach: the engine is healthy again, no residual state.
  disk.AttachFaultInjector(nullptr);
  EXPECT_TRUE(engine->ComputeGir(w, kK, Phase2Method::kFP).ok());
}

TEST(ErrorPathTest, NonFiniteWeightsAreInvalidArgumentEverywhere) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", kDim)));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Vec& bad :
       {Vec{0.5, nan, 0.2}, Vec{inf, 0.3, 0.2}, Vec{0.5, 0.3, -inf}}) {
    auto gir = engine->ComputeGir(bad, kK, Phase2Method::kFP);
    ASSERT_FALSE(gir.ok());
    EXPECT_EQ(gir.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(gir.status().message().find("dimension"), std::string::npos);
  }

  // Through both batch paths: the poisoned item fails alone, its
  // neighbors are served normally.
  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared" : "fanout");
    BatchOptions opts;
    opts.threads = 2;
    opts.cache_capacity = 0;
    opts.exec.shared_traversal = shared;
    BatchEngine batch(engine.get(), opts);
    std::vector<Vec> weights = SpreadWeights(4);
    weights[2][1] = nan;
    auto result = batch.ComputeBatch(weights, kK, Phase2Method::kFP);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->items.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
      if (i == 2) {
        EXPECT_EQ(result->items[i].status.code(),
                  StatusCode::kInvalidArgument);
        EXPECT_TRUE(result->items[i].topk.empty());
      } else {
        ASSERT_TRUE(result->items[i].status.ok()) << "item " << i;
        auto want = engine->ComputeGir(weights[i], kK, Phase2Method::kFP);
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(result->items[i].topk, want->topk.result);
      }
    }
    EXPECT_EQ(result->stats.failures, 1u);
  }
}

TEST(ErrorPathTest, SharedTraversalDegradesOnlyFaultedQueries) {
  TierGuard guard;
  Dataset data = FreshData();
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", kDim)));
  const std::vector<Vec> weights = SpreadWeights(12);
  std::vector<BrsMultiQuery> queries;
  for (const Vec& w : weights) queries.push_back({VecView(w), kK});

  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (simd::ForceTier(tier) != tier) continue;  // unsupported CPU
    SCOPED_TRACE(simd::TierName(tier));
    GirEngine::PinnedIndex pin = engine->PinIndex();

    BrsFrontierArena arena;
    std::vector<TopKResult> want;
    BrsMultiStats clean_stats;
    ASSERT_TRUE(RunBrsMulti(*pin.flat, engine->scoring(), queries, &arena,
                            &want, &clean_stats)
                    .ok());
    ASSERT_GE(clean_stats.unique_reads, 3u);

    // Property sweep: kill exactly one page fetch at every position of
    // the (deterministic, single-threaded) op sequence. Whatever the
    // fault hits, only its demanders may degrade; everyone else must be
    // bit-identical to the fault-free run. At least one position must
    // split the group (partial failure) or containment proved nothing.
    bool saw_partial = false;
    for (uint64_t pos = 1; pos < clean_stats.unique_reads; ++pos) {
      SCOPED_TRACE("fault at read " + std::to_string(pos));
      FaultPlan plan;
      plan.seed = 21;
      plan.read_error_rate = 1.0;
      plan.skip_ops = pos;
      plan.max_faults = 1;
      FaultInjector fi(plan);
      disk.AttachFaultInjector(&fi);
      BrsMultiStats stats;
      std::vector<TopKResult> got;
      std::vector<Status> statuses;
      Status st = RunBrsMulti(*pin.flat, engine->scoring(), queries, &arena,
                              &got, &stats, &statuses);
      disk.AttachFaultInjector(nullptr);

      // With a fault sink, the call succeeds and reports per-query
      // status.
      ASSERT_TRUE(st.ok());
      ASSERT_EQ(statuses.size(), queries.size());
      ASSERT_EQ(stats.read_faults, 1u);
      size_t failed = 0;
      for (size_t i = 0; i < queries.size(); ++i) {
        if (!statuses[i].ok()) {
          EXPECT_EQ(statuses[i].code(), StatusCode::kUnavailable);
          EXPECT_TRUE(got[i].result.empty());
          ++failed;
          continue;
        }
        // Healthy members are bit-identical to the fault-free run.
        EXPECT_EQ(got[i].result, want[i].result) << "query " << i;
        EXPECT_EQ(got[i].scores, want[i].scores) << "query " << i;
        EXPECT_EQ(got[i].io.reads, want[i].io.reads) << "query " << i;
      }
      EXPECT_GE(failed, 1u);
      saw_partial |= failed < queries.size();
    }
    EXPECT_TRUE(saw_partial);

    // Root-fetch fault without a sink: the whole call fails (legacy
    // all-or-nothing contract).
    FaultPlan root_plan;
    root_plan.seed = 21;
    root_plan.read_error_rate = 1.0;
    root_plan.max_faults = 1;
    FaultInjector fi(root_plan);
    disk.AttachFaultInjector(&fi);
    BrsMultiStats stats;
    std::vector<TopKResult> got;
    Status all = RunBrsMulti(*pin.flat, engine->scoring(), queries, &arena,
                             &got, &stats);
    disk.AttachFaultInjector(nullptr);
    EXPECT_FALSE(all.ok());
    EXPECT_EQ(all.code(), StatusCode::kUnavailable);
  }
}

TEST(ErrorPathTest, BatchRetriesSalvageTransientFaults) {
  TierGuard guard;
  Dataset data = FreshData();
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", kDim)));
  const std::vector<Vec> weights = SpreadWeights(8);

  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (simd::ForceTier(tier) != tier) continue;  // unsupported CPU
    SCOPED_TRACE(simd::TierName(tier));
    for (bool shared : {false, true}) {
      SCOPED_TRACE(shared ? "shared" : "fanout");
      BatchOptions opts;
      opts.threads = 1;  // deterministic op ordering for the fault plan
      opts.cache_capacity = 0;
      opts.exec.shared_traversal = shared;
      opts.exec.max_retries = 3;
      opts.exec.retry_backoff_ms = 0.01;
      BatchEngine batch(engine.get(), opts);

      auto clean = batch.ComputeBatch(weights, kK, Phase2Method::kFP);
      ASSERT_TRUE(clean.ok());

      // One transient fault: the first read of some attempt fails, every
      // retry thereafter sees a healthy device.
      FaultPlan plan;
      plan.seed = 13;
      plan.read_error_rate = 1.0;
      plan.max_faults = 1;
      FaultInjector fi(plan);
      disk.AttachFaultInjector(&fi);
      auto faulted = batch.ComputeBatch(weights, kK, Phase2Method::kFP);
      disk.AttachFaultInjector(nullptr);

      ASSERT_TRUE(faulted.ok());
      EXPECT_EQ(faulted->stats.failures, 0u);
      EXPECT_GE(faulted->stats.fault_retries, 1u);
      EXPECT_GE(faulted->stats.retry_successes, 1u);
      EXPECT_EQ(faulted->stats.unavailable, 0u);
      for (size_t i = 0; i < weights.size(); ++i) {
        ASSERT_TRUE(faulted->items[i].status.ok()) << "item " << i;
        EXPECT_EQ(faulted->items[i].topk, clean->items[i].topk)
            << "item " << i;
      }
    }
  }
}

TEST(ErrorPathTest, ExhaustedRetryBudgetDegradesExplicitly) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", kDim)));
  const std::vector<Vec> weights = SpreadWeights(6);

  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared" : "fanout");
    BatchOptions opts;
    opts.threads = 2;
    opts.cache_capacity = 0;
    opts.exec.shared_traversal = shared;
    opts.exec.max_retries = 2;
    opts.exec.retry_backoff_ms = 0.01;
    BatchEngine batch(engine.get(), opts);

    FaultPlan plan;  // a dead device: every read fails, forever
    plan.seed = 3;
    plan.read_error_rate = 1.0;
    FaultInjector fi(plan);
    disk.AttachFaultInjector(&fi);
    auto result = batch.ComputeBatch(weights, kK, Phase2Method::kFP);
    disk.AttachFaultInjector(nullptr);

    ASSERT_TRUE(result.ok());  // the *call* survives; items degrade
    EXPECT_EQ(result->stats.failures, weights.size());
    EXPECT_EQ(result->stats.unavailable, weights.size());
    for (const BatchItem& item : result->items) {
      EXPECT_EQ(item.status.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(item.topk.empty());
      EXPECT_EQ(item.retries, 2u);  // budget fully spent, then terminal
    }
    EXPECT_EQ(result->stats.fault_retries, 2u * weights.size());
    EXPECT_EQ(result->stats.retry_successes, 0u);
  }
}

TEST(ErrorPathTest, DeadlineBudgetSuppressesRetries) {
  Dataset data = FreshData(200);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", kDim)));
  const std::vector<Vec> weights = SpreadWeights(4);

  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared" : "fanout");
    BatchOptions opts;
    opts.threads = 1;
    opts.cache_capacity = 0;
    opts.exec.shared_traversal = shared;
    opts.exec.max_retries = 5;
    opts.exec.retry_backoff_ms = 50.0;  // any retry would blow the budget
    BatchEngine batch(engine.get(), opts);

    FaultPlan plan;
    plan.seed = 3;
    plan.read_error_rate = 1.0;
    FaultInjector fi(plan);
    disk.AttachFaultInjector(&fi);
    ExecPolicy policy = opts.exec;
    policy.deadline_ms = 5.0;  // smaller than one backoff step
    auto result =
        batch.ComputeBatch(weights, kK, Phase2Method::kFP, policy);
    disk.AttachFaultInjector(nullptr);

    // Degradation is immediate and explicit: no retry can fit the
    // budget, so no 50 ms sleeps happen and every item is terminal.
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stats.fault_retries, 0u);
    EXPECT_EQ(result->stats.unavailable, weights.size());
    for (const BatchItem& item : result->items) {
      EXPECT_EQ(item.status.code(), StatusCode::kUnavailable);
      EXPECT_EQ(item.retries, 0u);
    }
  }
}

// ----- API-boundary validation (ExecPolicy / EngineConfig) -----
// Malformed knobs fail fast and by name with kInvalidArgument, before
// any query runs: a NaN deadline would silently disable deadline
// accounting, a zero group width can make no shared-traversal
// progress, and a "negative" retry budget arrives as a huge size_t.

TEST(PolicyValidationTest, MalformedExecPolicyIsInvalidArgument) {
  Dataset data = FreshData();
  DiskManager disk;
  auto engine = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &disk, MakeScoring("Linear", kDim)));
  BatchEngine batch(engine.get(), BatchOptions{});
  const auto weights = SpreadWeights(2);

  const auto expect_invalid = [&](const ExecPolicy& policy) {
    auto result = batch.ComputeBatch(weights, kK, Phase2Method::kFP, policy);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  };

  ExecPolicy p;
  p.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  expect_invalid(p);
  p = ExecPolicy{};
  p.deadline_ms = -5.0;
  expect_invalid(p);
  p = ExecPolicy{};
  p.retry_backoff_ms = -0.5;
  expect_invalid(p);
  p = ExecPolicy{};
  p.retry_backoff_ms = std::numeric_limits<double>::infinity();
  expect_invalid(p);
  p = ExecPolicy{};
  p.hedge_delay_ms = -1.0;
  expect_invalid(p);
  p = ExecPolicy{};
  p.shared_traversal = true;
  p.group_width = 0;
  expect_invalid(p);
  p = ExecPolicy{};
  p.max_retries = static_cast<size_t>(-3);  // careless signed conversion
  expect_invalid(p);

  // The documented baseline passes, and so does an unshared zero
  // width (the knob is inert without shared traversal).
  EXPECT_TRUE(ValidateExecPolicy(ExecPolicy{}).ok());
  p = ExecPolicy{};
  p.group_width = 0;
  auto ok = batch.ComputeBatch(weights, kK, Phase2Method::kFP, p);
  ASSERT_TRUE(ok.ok());
}

TEST(PolicyValidationTest, EngineConfigFileSourcesNeedAPath) {
  DiskManager disk;
  for (auto make : {&EngineConfig::FromCsv, &EngineConfig::FromArena}) {
    auto engine = GirEngine::Open(
        make("", &disk, MakeScoring("Linear", kDim), GirEngineOptions{}));
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PolicyValidationTest, PinnedEpochBehindEngineDegradesToUnavailable) {
  Dataset data = FreshData();
  DiskManager disk;
  auto engine = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &disk, MakeScoring("Linear", kDim)));
  BatchEngine batch(engine.get(), BatchOptions{});
  const auto weights = SpreadWeights(3);

  // The engine is at epoch 0; a reply pinned to epoch 3 cannot be
  // served without time travel — explicit kUnavailable items, never a
  // stale answer.
  ExecPolicy pinned;
  pinned.pin_epoch = 3;
  auto result = batch.ComputeBatch(weights, kK, Phase2Method::kFP, pinned);
  ASSERT_TRUE(result.ok());
  for (const BatchItem& item : result->items) {
    EXPECT_EQ(item.status.code(), StatusCode::kUnavailable);
  }

  // Advance past the pin; the same policy now serves normally.
  ASSERT_TRUE(engine->ApplyUpdates(UpdateBatch{{{0.4, 0.4, 0.4}}, {}}).ok());
  ASSERT_TRUE(engine->ApplyUpdates(UpdateBatch{{{0.5, 0.2, 0.6}}, {}}).ok());
  ASSERT_TRUE(engine->ApplyUpdates(UpdateBatch{{{0.3, 0.7, 0.1}}, {}}).ok());
  result = batch.ComputeBatch(weights, kK, Phase2Method::kFP, pinned);
  ASSERT_TRUE(result.ok());
  for (const BatchItem& item : result->items) {
    EXPECT_TRUE(item.status.ok()) << item.status.message();
  }
}

}  // namespace
}  // namespace gir
