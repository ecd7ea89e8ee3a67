#include "plan.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "serve/traffic_gen.h"

namespace girbench {

namespace {

using gir::Result;
using gir::Status;
using gir::serve::GenerateTrace;
using gir::serve::Trace;
using gir::serve::TraceEventKind;
using gir::serve::TrafficConfig;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec hot;
  hot.name = "hot_d4";
  hot.n = 200000;
  hot.dim = 4;
  hot.loop = Loop::kOpen;
  // About a quarter of what a calm 4-vCPU host serves. At 1000 qps a
  // burst of CPU steal on a shared host pushed capacity below the offered
  // rate: queues built up, p50 went from 3.6 ms to 25 ms and requests
  // were shed, in 2 of 10 runs.
  hot.query_qps = 500.0;
  hot.isolated_updates = 160;
  hot.max_batch = 32;
  hot.max_wait_ms = 2.0;
  hot.slo_ms = 50.0;
  out.push_back(hot);

  // hot_d4's catalog and rate band with every weight vector fresh: the
  // cache never hits, so each request runs BRS, Phase 1, Phase 2 and the
  // intersection. About 2.3 ms of GIR CPU per request, a seventh of the
  // pool's capacity at this rate.
  WorkloadSpec miss = hot;
  miss.name = "miss_d4";
  miss.query_qps = 200.0;
  miss.fresh_weights = true;
  out.push_back(miss);

  // Runs, but BENCHMARK.json leaves it out: each request is ~10 ms of
  // pure GIR CPU, so its latency follows the shared host's speed, which
  // drifts by a third from minute to minute (README.md).
  WorkloadSpec cold;
  cold.name = "cold_d5";
  cold.n = 40000;
  cold.dim = 5;
  cold.loop = Loop::kClosed;
  cold.clients = 4;
  cold.fresh_weights = true;
  cold.isolated_updates = 160;
  // A full closed-loop round fires at once; the wait only bounds a
  // straggling client.
  cold.max_batch = 4;
  cold.max_wait_ms = 1.0;
  cold.slo_ms = 200.0;
  out.push_back(cold);

  WorkloadSpec mix = hot;
  mix.name = "write_mix";
  mix.query_qps = 500.0;
  mix.update_bps = 25.0;
  mix.isolated_updates = 0;
  mix.slo_ms = 100.0;
  out.push_back(mix);
  return out;
}

// Per-stream seeds: independent streams must not share an RNG sequence.
uint64_t StreamSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL + 1;
}

// The hot set: one archetype weight vector per key, drawn from
// kCatalogSeed like the catalog, so which vectors are hot (and what
// Phase 2 costs on their misses) belongs to the workload, not the seed.
// With per-seed archetypes, hot_d4's p50 read 3.1-3.4 ms on one seed and
// 2.6-2.7 ms on another, run after run.
Result<std::vector<gir::Vec>> HotSet(const WorkloadSpec& spec) {
  TrafficConfig t;
  t.seed = kCatalogSeed;
  t.dim = spec.dim;
  t.k = spec.k;
  t.key_pool = spec.key_pool;
  t.zipf_s = 0.0;  // uniform, so every key is drawn
  t.events = 64 * spec.key_pool;
  Result<Trace> trace = GenerateTrace(t);
  if (!trace.ok()) return trace.status();
  std::vector<gir::Vec> out(spec.key_pool);
  for (auto& ev : trace->events) {
    if (out[ev.key].empty()) out[ev.key] = std::move(ev.weights);
  }
  for (const gir::Vec& w : out) {
    if (w.empty()) return Status::Internal("a hot-set key was never drawn");
  }
  return out;
}

// GenerateTrace's personalization: with probability `prob`, the key's
// weights plus Gaussian jitter, clamped to [0.01, 1].
gir::Vec Personalize(const gir::Vec& center, double prob, double stddev,
                     gir::Rng* rng) {
  if (!(rng->Uniform() < prob)) return center;
  gir::Vec w(center.size());
  for (size_t j = 0; j < center.size(); ++j) {
    w[j] = std::min(1.0,
                    std::max(0.01, center[j] + rng->Gaussian(0.0, stddev)));
  }
  return w;
}

// `count` update batches valid in order against an n-record dataset
// (GenerateTrace tracks live ids: deletes hit live records, inserts get
// the ids Dataset::AppendRecord will assign).
Result<std::vector<gir::UpdateBatch>> UpdateBatches(const WorkloadSpec& spec,
                                                    uint64_t seed,
                                                    size_t count) {
  TrafficConfig t;
  t.seed = seed;
  t.dim = spec.dim;
  t.k = spec.k;
  t.events = count;
  t.base_qps = 1000.0;
  t.update_ratio = 1.0;
  t.updates_per_batch = spec.update_records;
  t.delete_fraction = 0.5;
  t.initial_records = spec.n;
  Result<Trace> trace = GenerateTrace(t);
  if (!trace.ok()) return trace.status();
  std::vector<gir::UpdateBatch> out;
  out.reserve(count);
  for (auto& ev : trace->events) out.push_back(std::move(ev.update));
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Result<Plan> BuildPlan(const WorkloadSpec& spec, uint64_t seed,
                       double seconds) {
  if (!(seconds > 0.0)) {
    return Status::InvalidArgument("seconds must be positive");
  }
  Plan plan;
  plan.warmup_ms = kWarmupSeconds * 1000.0;
  plan.measure_ms = seconds * 1000.0;
  const double total_s = kWarmupSeconds + seconds;

  // ----- queries -----
  TrafficConfig t;
  t.seed = StreamSeed(seed, 1);
  t.dim = spec.dim;
  t.k = spec.k;
  if (spec.loop == Loop::kOpen) {
    // Enough Poisson arrivals to cover the run with margin; the tail
    // past the run end is cut below.
    t.base_qps = spec.query_qps;
    t.events = static_cast<size_t>(spec.query_qps * total_s * 1.2) + 64;
  } else {
    t.base_qps = 1000.0;  // arrival times unused in closed loop
    t.events = static_cast<size_t>(kClosedLoopQpsCap * total_s);
  }
  if (spec.fresh_weights) {
    // Every weight vector personalized from a key drawn uniformly out of
    // a pool as large as the plan: bitwise-fresh, no cache reuse.
    t.key_pool = t.events;
    t.zipf_s = 0.0;
    t.jitter_prob = 1.0;
  } else {
    // The trace draws arrivals and keys; each key's weights come from
    // the fixed hot set, personalized below.
    t.key_pool = spec.key_pool;
    t.zipf_s = spec.zipf_s;
  }
  Result<Trace> trace = GenerateTrace(t);
  if (!trace.ok()) return trace.status();
  std::vector<gir::Vec> hot;
  if (!spec.fresh_weights) {
    Result<std::vector<gir::Vec>> h = HotSet(spec);
    if (!h.ok()) return h.status();
    hot = std::move(*h);
  }
  gir::Rng jitter(StreamSeed(seed, 4));
  for (auto& ev : trace->events) {
    if (ev.kind != TraceEventKind::kQuery) continue;
    if (spec.loop == Loop::kOpen && ev.arrival_ms >= total_s * 1000.0) break;
    QueryOp op;
    op.id = plan.queries.size();
    op.due_ms = spec.loop == Loop::kOpen ? ev.arrival_ms : 0.0;
    op.weights = spec.fresh_weights
                     ? std::move(ev.weights)
                     : Personalize(hot[ev.key], spec.jitter_prob, t.jitter,
                                   &jitter);
    plan.queries.push_back(std::move(op));
  }

  // ----- concurrent updates: periodic, so the batch count (and with it
  // the checkpoint schedule and the WAL tail a restart replays) is the
  // same on every seed -----
  if (spec.update_bps > 0.0) {
    const double period_ms = 1000.0 / spec.update_bps;
    const size_t count =
        static_cast<size_t>(std::floor(total_s * spec.update_bps));
    Result<std::vector<gir::UpdateBatch>> batches =
        UpdateBatches(spec, StreamSeed(seed, 2), count);
    if (!batches.ok()) return batches.status();
    for (size_t i = 0; i < count; ++i) {
      UpdateOp op;
      op.due_ms = (static_cast<double>(i) + 0.5) * period_ms;
      op.batch = std::move((*batches)[i]);
      plan.updates.push_back(std::move(op));
    }
  }

  // ----- isolated write phase -----
  if (spec.isolated_updates > 0) {
    Result<std::vector<gir::UpdateBatch>> batches =
        UpdateBatches(spec, StreamSeed(seed, 3), spec.isolated_updates);
    if (!batches.ok()) return batches.status();
    for (size_t i = 0; i < batches->size(); ++i) {
      UpdateOp op;
      op.batch = std::move((*batches)[i]);
      plan.isolated.push_back(std::move(op));
    }
  }
  return plan;
}

}  // namespace girbench
