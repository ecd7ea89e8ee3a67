// Trace-replay determinism: replaying a generated trace through the
// serving front door (admission queue -> adaptive clustering ->
// ComputeBatch with hints, update events as barriers) must produce
// per-request top-k results bit-identical to running the same event
// sequence directly against GirEngine::ComputeGir in arrival order —
// across forced SIMD tiers, and independent of adaptive vs static
// width. Plus the no-silent-drop contract: under overload every query
// still gets exactly one outcome, shed ones carrying an explicit
// ResourceExhausted.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "gir/batch_engine.h"
#include "gir/engine.h"
#include "serve/replay.h"
#include "storage/disk_manager.h"
#include "topk/scoring.h"

namespace gir::serve {
namespace {

constexpr uint64_t kDataSeed = 404;

class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }

 private:
  simd::Tier saved_;
};

TrafficConfig MixedTrace() {
  TrafficConfig c;
  c.seed = 2014;
  c.dim = 3;
  c.k = 8;
  c.events = 160;
  c.base_qps = 3000.0;
  c.key_pool = 12;
  c.zipf_s = 1.1;
  c.jitter_prob = 0.25;  // some personalized weights among the repeats
  c.update_ratio = 0.15;
  c.updates_per_batch = 4;
  c.delete_fraction = 0.5;
  c.initial_records = 300;
  return c;
}

Dataset FreshData(const TrafficConfig& c) {
  Rng rng(kDataSeed);
  Result<Dataset> d = GenerateByName("IND", c.initial_records, c.dim, rng);
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

// The ground truth the front door must reproduce: the same events, in
// arrival order, as plain sequential ComputeGir / ApplyUpdates calls.
std::vector<std::vector<RecordId>> DirectReference(const Trace& trace) {
  Dataset data = FreshData(trace.config);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", trace.config.dim)));
  std::vector<std::vector<RecordId>> topk;
  for (const TraceEvent& ev : trace.events) {
    if (ev.kind == TraceEventKind::kUpdate) {
      Result<UpdateStats> up = engine->ApplyUpdates(ev.update);
      EXPECT_TRUE(up.ok()) << up.status().ToString();
      continue;
    }
    Result<GirComputation> gir =
        engine->ComputeGir(ev.weights, ev.k, Phase2Method::kFP);
    EXPECT_TRUE(gir.ok()) << gir.status().ToString();
    topk.push_back(gir.ok() ? gir->topk.result : std::vector<RecordId>{});
  }
  return topk;
}

// Shed-free replay of `trace` on a fresh engine: huge deadlines, no
// dispatch shedding, so batching/grouping is the only variable.
Result<ServiceReport> ShedFreeReplay(const Trace& trace, Dataset* data,
                                     bool adaptive, size_t static_width,
                                     double modeled_ms_per_read = 0.0) {
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(data, &disk, MakeScoring("Linear", trace.config.dim)));
  BatchOptions opts;
  opts.threads = 2;
  opts.cache_capacity = 0;  // probe-order independence is cache_test's job
  opts.exec.shared_traversal = true;
  BatchEngine batch(engine.get(), opts);
  ReplayOptions ro;
  ro.admission.max_batch = 16;
  ro.admission.deadline_ms = 1e12;
  ro.admission.queue_capacity = 1 << 20;
  ro.admission.max_width = 8;
  ro.adaptive_width = adaptive;
  ro.static_width = static_width;
  ro.modeled_ms_per_read = modeled_ms_per_read;
  return ReplayTrace(trace, &batch, ro);
}

// The tentpole property of this PR.
TEST(ServeReplayTest, ReplayMatchesDirectComputeBitwiseAcrossTiers) {
  TierGuard guard;
  Result<Trace> trace = GenerateTrace(MixedTrace());
  ASSERT_TRUE(trace.ok());
  ASSERT_GT(trace->updates, 0u);  // barriers actually exercised

  ASSERT_EQ(simd::ForceTier(simd::Tier::kScalar), simd::Tier::kScalar);
  const std::vector<std::vector<RecordId>> want = DirectReference(*trace);
  ASSERT_EQ(want.size(), trace->queries);

  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (simd::ForceTier(tier) != tier) continue;  // unsupported CPU
    SCOPED_TRACE(simd::TierName(tier));
    Dataset data = FreshData(trace->config);
    Result<ServiceReport> report = ShedFreeReplay(*trace, &data, true, 0);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->outcomes.size(), trace->queries);
    EXPECT_EQ(report->metrics.shed, 0u);
    EXPECT_EQ(report->metrics.failed, 0u);
    for (size_t q = 0; q < want.size(); ++q) {
      const RequestOutcome& out = report->outcomes[q];
      ASSERT_TRUE(out.status.ok()) << "query " << q;
      EXPECT_EQ(out.topk, want[q]) << "query " << q;
    }
  }
}

// Adaptive width and any static width answer identically — the
// adaptive policy is purely a performance decision.
TEST(ServeReplayTest, AdaptiveAndStaticWidthAnswerIdentically) {
  Result<Trace> trace = GenerateTrace(MixedTrace());
  ASSERT_TRUE(trace.ok());
  Dataset data_a = FreshData(trace->config);
  Dataset data_b = FreshData(trace->config);
  Dataset data_c = FreshData(trace->config);
  Result<ServiceReport> adaptive = ShedFreeReplay(*trace, &data_a, true, 0);
  Result<ServiceReport> wide = ShedFreeReplay(*trace, &data_b, false, 64);
  Result<ServiceReport> narrow = ShedFreeReplay(*trace, &data_c, false, 1);
  ASSERT_TRUE(adaptive.ok() && wide.ok() && narrow.ok());
  ASSERT_EQ(adaptive->outcomes.size(), wide->outcomes.size());
  ASSERT_EQ(adaptive->outcomes.size(), narrow->outcomes.size());
  for (size_t q = 0; q < adaptive->outcomes.size(); ++q) {
    EXPECT_EQ(adaptive->outcomes[q].topk, wide->outcomes[q].topk) << q;
    EXPECT_EQ(adaptive->outcomes[q].topk, narrow->outcomes[q].topk) << q;
  }
  // Same engine-side charge regardless of grouping (the amortization
  // contract), and the adaptive run recorded plausible widths.
  EXPECT_EQ(adaptive->charged_reads, wide->charged_reads);
  EXPECT_EQ(adaptive->charged_reads, narrow->charged_reads);
  EXPECT_GT(adaptive->metrics.batches, 0u);
  EXPECT_GE(adaptive->metrics.mean_width, 1.0);
}

// Overload: the front door may shed, but never silently — every query
// ends served (with results) or explicitly ResourceExhausted, and the
// metrics ledger conserves requests.
TEST(ServeReplayTest, OverloadShedsExplicitlyAndConservesRequests) {
  TrafficConfig c = MixedTrace();
  c.events = 400;
  c.base_qps = 200000.0;  // far beyond one core's capacity
  c.update_ratio = 0.05;
  Result<Trace> trace = GenerateTrace(c);
  ASSERT_TRUE(trace.ok());

  Dataset data = FreshData(c);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", c.dim)));
  BatchOptions opts;
  opts.threads = 2;
  opts.cache_capacity = 0;
  opts.exec.shared_traversal = true;
  BatchEngine batch(engine.get(), opts);
  ReplayOptions ro;
  ro.admission.max_batch = 32;
  ro.admission.deadline_ms = 4.0;  // tight SLA
  ro.admission.queue_capacity = 48;
  Result<ServiceReport> report = ReplayTrace(*trace, &batch, ro);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->outcomes.size(), trace->queries);
  size_t served = 0, shed = 0;
  for (const RequestOutcome& out : report->outcomes) {
    if (out.status.ok()) {
      EXPECT_FALSE(out.topk.empty());
      EXPECT_FALSE(out.timing.shed);
      ++served;
    } else {
      EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted)
          << out.status.ToString();
      EXPECT_TRUE(out.timing.shed);
      EXPECT_TRUE(out.topk.empty());
      ++shed;
    }
  }
  EXPECT_EQ(served + shed, trace->queries);
  EXPECT_GT(shed, 0u);  // this rate must overwhelm the server
  EXPECT_GT(served, 0u);

  const ServiceMetrics& m = report->metrics;
  EXPECT_EQ(m.requests, trace->queries);
  EXPECT_EQ(m.served + m.shed + m.failed, m.requests);
  EXPECT_EQ(m.served, served);
  EXPECT_EQ(m.shed, shed);
  EXPECT_EQ(m.update_events, trace->updates);
  EXPECT_NEAR(m.ShedRate(),
              static_cast<double>(shed) / static_cast<double>(m.requests),
              1e-12);
  uint64_t histogram_total = 0;
  for (uint64_t b : m.occupancy_histogram) histogram_total += b;
  EXPECT_EQ(histogram_total, m.batches);
}

// Work-conserving admission, idle server: when every arrival finds the
// server free, each query is admitted the moment it arrives (no linger
// to fill a batch) and runs as a batch of one.
TEST(ServeReplayTest, SparseTraceAdmitsEveryQueryOnArrival) {
  TrafficConfig c = MixedTrace();
  c.events = 40;
  c.update_ratio = 0.0;
  Result<Trace> trace = GenerateTrace(c);
  ASSERT_TRUE(trace.ok());
  // One second between arrivals: far longer than any batch takes.
  for (size_t i = 0; i < trace->events.size(); ++i) {
    trace->events[i].arrival_ms = 1000.0 * static_cast<double>(i);
  }
  trace->duration_ms = trace->events.back().arrival_ms;

  Dataset data = FreshData(c);
  Result<ServiceReport> report = ShedFreeReplay(*trace, &data, true, 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  size_t served = 0;
  for (const RequestOutcome& out : report->outcomes) {
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.timing.admit_ms, out.timing.enqueue_ms) << out.id;
    ++served;
  }
  EXPECT_EQ(served, trace->queries);
  EXPECT_EQ(report->metrics.batches, served);
}

// Work-conserving admission, busy server: queries that arrive while a
// batch runs wait for it and share the next batch, so batching still
// happens under load (fewer batches than queries), every batch fires
// no earlier than its requests arrived, and the answers stay
// bit-identical to the direct sequential reference.
TEST(ServeReplayTest, OverloadedTraceStillBatches) {
  TrafficConfig c = MixedTrace();
  c.base_qps = 200000.0;  // far beyond one core's capacity
  Result<Trace> trace = GenerateTrace(c);
  ASSERT_TRUE(trace.ok());
  const std::vector<std::vector<RecordId>> want = DirectReference(*trace);

  Dataset data = FreshData(c);
  Result<ServiceReport> report = ShedFreeReplay(*trace, &data, true, 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->outcomes.size(), want.size());
  size_t served = 0;
  for (size_t q = 0; q < want.size(); ++q) {
    const RequestOutcome& out = report->outcomes[q];
    ASSERT_TRUE(out.status.ok()) << "query " << q;
    EXPECT_EQ(out.topk, want[q]) << "query " << q;
    EXPECT_GE(out.timing.admit_ms, out.timing.enqueue_ms) << "query " << q;
    ++served;
  }
  EXPECT_EQ(report->metrics.served, served);
  EXPECT_LT(report->metrics.batches, served);
  EXPECT_GT(report->metrics.mean_batch_occupancy, 1.0);
}

// The modeled service clock takes wall time out of the schedule: two
// replays of a timed, loaded trace form the same batches and report
// the same per-request timestamps.
TEST(ServeReplayTest, ModeledClockReplaysTheSameSchedule) {
  Result<Trace> trace = GenerateTrace(MixedTrace());
  ASSERT_TRUE(trace.ok());
  Dataset data_a = FreshData(trace->config);
  Dataset data_b = FreshData(trace->config);
  Result<ServiceReport> a = ShedFreeReplay(*trace, &data_a, true, 0, 0.1);
  Result<ServiceReport> b = ShedFreeReplay(*trace, &data_b, true, 0, 0.1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(a->metrics.batches, trace->queries);  // it did batch
  EXPECT_EQ(a->metrics.batches, b->metrics.batches);
  ASSERT_EQ(a->outcomes.size(), b->outcomes.size());
  for (size_t q = 0; q < a->outcomes.size(); ++q) {
    EXPECT_EQ(a->outcomes[q].timing.admit_ms, b->outcomes[q].timing.admit_ms)
        << "query " << q;
    EXPECT_EQ(a->outcomes[q].timing.reply_ms, b->outcomes[q].timing.reply_ms)
        << "query " << q;
  }
}

}  // namespace
}  // namespace gir::serve
