// girbench: one end-to-end run of one workload over the real serving
// stack (admission -> batch engine -> GIR engine -> WAL).
//
//   girbench --workload=hot_d4 --seed=1 --seconds=10 --trace=0
//            --workdir=.bench_build/girbench-work/x
//
// --trace=0 reports the end-to-end metrics; --trace=1 runs the same
// workload with call spans recorded, then the layer probes, and reports
// the per-layer metrics (plus a Chrome trace with --trace_out). Both
// check answers outside the timed window and fail (exit 1, "correct":
// false) on any mismatch. The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/simd.h"
#include "plan.h"
#include "probe.h"
#include "report.h"
#include "spans.h"
#include "stack.h"
#include "topk/scoring.h"

namespace girbench {
namespace {

using gir::Result;
using gir::Status;
using HitKind = gir::ShardedGirCache::HitKind;

// A run whose open-loop generator sent its p99 request later than this
// after its due time measured the generator, not the system: invalid.
constexpr double kMaxGenLagP99Ms = 20.0;
constexpr size_t kAnswerSamples = 48;
constexpr size_t kHitSamples = 16;
constexpr size_t kDurabilitySamples = 8;
constexpr size_t kWriteProbeBatches = 32;
constexpr size_t kProbeQueries = 64;
constexpr int kRestarts = 5;
// The untraced run sets up at least kMinSetups times and for at least
// kMinSetupSeconds in all; setup_s is the median. One set-up varies by a
// fifth within a run (the checkpoint's fsync, first-touch page faults),
// and a median of three moved between runs by as much.
constexpr size_t kMinSetups = 7;
constexpr double kMinSetupSeconds = 2.0;
constexpr size_t kSlices = 5;

struct Options {
  std::string workload;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  std::string workdir = ".bench_build/girbench-work";
  std::string trace_out;
};

// Seeded sample of up to `count` distinct positions out of `n`.
std::vector<size_t> Sample(size_t n, size_t count, uint64_t seed) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  gir::Rng rng(seed);
  const size_t take = std::min(n, count);
  for (size_t i = 0; i < take; ++i) {
    std::swap(all[i], all[i + rng.UniformInt(n - i)]);
  }
  all.resize(take);
  return all;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Top-k by scoring every live record: the reference for answers served
// from the cache.
std::vector<gir::RecordId> LinearScanTopK(const gir::Dataset& data,
                                          const gir::ScoringFunction& scoring,
                                          gir::VecView w, size_t k) {
  std::vector<std::pair<double, gir::RecordId>> scored;
  scored.reserve(data.live_size());
  for (size_t i = 0; i < data.size(); ++i) {
    const auto id = static_cast<gir::RecordId>(i);
    if (data.IsLive(id)) scored.emplace_back(scoring.Score(data.Get(id), w), id);
  }
  const size_t take = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  std::vector<gir::RecordId> out;
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

bool Served(const QueryRecord& r) { return r.attempted && !r.shed && !r.failed; }

// Answer check of the read-only workloads: sampled served top-k lists
// equal a sequential ComputeGir on the same epoch (bitwise, scores
// included where the reply carried them), and sampled cache hits equal
// a linear scan.
Status CheckAnswers(const WorkloadSpec& spec, const Plan& plan,
                    const TrafficResult& tr, const Stack& stack,
                    uint64_t seed, size_t* checked) {
  std::vector<size_t> served, hits;
  for (size_t i = 0; i < tr.queries.size(); ++i) {
    const QueryRecord& r = tr.queries[i];
    if (!r.measured || !Served(r)) continue;
    served.push_back(i);
    if (r.hit == HitKind::kExact) hits.push_back(i);
  }
  const gir::GirEngine& engine = *stack.engine;
  for (size_t s : Sample(served.size(), kAnswerSamples, seed ^ 0xA5A5)) {
    const QueryRecord& r = tr.queries[served[s]];
    const gir::Vec& w = plan.queries[served[s]].weights;
    Result<gir::GirComputation> ref =
        engine.ComputeGir(w, spec.k, gir::Phase2Method::kFP);
    if (!ref.ok()) return ref.status();
    if (ref->snapshot_version != r.epoch || ref->topk.result != r.topk ||
        (!r.scores.empty() && !SameBits(ref->topk.scores, r.scores))) {
      return Status::DataLoss("served answer of query " +
                              std::to_string(served[s]) +
                              " differs from ComputeGir");
    }
    ++*checked;
  }
  const gir::FlatRTree& flat = engine.flat_tree();
  for (size_t s : Sample(hits.size(), kHitSamples, seed ^ 0x5A5A)) {
    const QueryRecord& r = tr.queries[hits[s]];
    if (LinearScanTopK(flat.dataset(), engine.scoring(),
                       plan.queries[hits[s]].weights, spec.k) != r.topk) {
      return Status::DataLoss("cache-hit answer of query " +
                              std::to_string(hits[s]) +
                              " differs from a linear scan");
    }
    ++*checked;
  }
  return Status::Ok();
}

struct Reference {
  gir::Vec weights;
  std::vector<gir::RecordId> ids;
  std::vector<double> scores;
};

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Per-request phases of the traced run, rebuilt from the records and
// appended to the span log as request-scoped spans.
void AddRequestPhases(const WorkloadSpec& spec, const TrafficResult& tr,
                      const std::vector<UpdateRecord>& isolated,
                      SpanLog* spans) {
  for (size_t i = 0; i < tr.queries.size(); ++i) {
    const QueryRecord& r = tr.queries[i];
    if (!r.attempted) continue;
    const auto id = static_cast<int64_t>(i);
    // Closed-loop latency starts at submit; the client's reaction time
    // before it is shown but not attributed.
    spans->Add("gen_lag", spec.loop == Loop::kOpen ? "query" : "client",
               kGeneratorTrack, r.due_ms, r.submit_start_ms, id);
    spans->Add("submit", "query", kGeneratorTrack, r.submit_start_ms,
               r.submit_end_ms, id);
    if (!Served(r)) continue;
    spans->Add("admission_wait", "query", kServerTrack, r.submit_end_ms,
               r.form_start_ms, id);
    spans->Add("form", "query", kServerTrack, r.form_start_ms, r.form_end_ms,
               id);
    spans->Add("dispatch_wait", "query", kServerTrack, r.form_end_ms,
               r.batch_start_ms, id);
    spans->Add("batch", "query", kServerTrack, r.batch_start_ms,
               r.batch_end_ms, id);
  }
  const auto add_updates = [&](const std::vector<UpdateRecord>& ups,
                               int64_t base) {
    for (size_t i = 0; i < ups.size(); ++i) {
      const UpdateRecord& u = ups[i];
      if (!u.attempted) continue;
      const int64_t id = base + static_cast<int64_t>(i);
      spans->Add("writer_wait", "update", kWriterTrack, u.due_ms,
                 u.call_start_ms, id);
      spans->Add("apply", "update", kWriterTrack, u.call_start_ms,
                 u.call_end_ms, id);
    }
  };
  add_updates(tr.updates, 0);
  add_updates(isolated, static_cast<int64_t>(tr.updates.size()));
}

// Cost of one enabled SpanLog::Add, in ms.
double SpanAddCostMs() {
  SpanLog scratch(true);
  Clock clock;
  constexpr int kCalls = 20000;
  const double start = clock.Now();
  for (int i = 0; i < kCalls; ++i) {
    scratch.Add("calibrate", "call", kMainTrack, 0.0, 1.0);
  }
  return (clock.Now() - start) / kCalls;
}

void PrintShare(const char* layer, double ms, double total) {
  std::printf("  %-28s %10.4f ms  %6.2f%%\n", layer, ms,
              total > 0.0 ? 100.0 * ms / total : 0.0);
}

// Layer shares of mean latency (queries and update acks). The serving
// path's batch time is split across the engine layers in proportion to
// the probed per-request CPU of each layer (a cache hit only costs its
// probe). Prints the table and returns the leading layers.
std::pair<std::string, std::string> PrintShares(
    const WorkloadSpec& spec, const TrafficResult& tr,
    const std::vector<UpdateRecord>& isolated,
    const std::vector<QueryProbe>& qp, const WriteProbeSummary& wp) {
  double n = 0, lag = 0, serve = 0, batch = 0, gap = 0;
  for (const QueryRecord& r : tr.queries) {
    if (!r.measured || !Served(r)) continue;
    ++n;
    if (spec.loop == Loop::kOpen) lag += r.submit_start_ms - r.due_ms;
    serve += r.batch_start_ms - r.submit_start_ms;
    batch += r.batch_end_ms - r.batch_start_ms;
    gap += r.reply_ms - r.batch_end_ms;
  }
  double probe = 0, brs = 0, p1 = 0, p2 = 0, geom = 0;
  for (const QueryProbe& p : qp) {
    probe += p.cache_probe_us / 1000.0;
    if (p.hit == HitKind::kExact) continue;
    brs += p.brs_ms;
    p1 += p.phase1_ms;
    p2 += p.phase2_ms;
    geom += p.intersect_ms;
  }
  const double cpu = probe + brs + p1 + p2 + geom;
  std::vector<std::pair<std::string, double>> q = {
      {"harness.gen_lag", Ratio(lag, n)},
      {"serve (submit+admission+dispatch)", Ratio(serve, n)},
      {"gir.cache_probe", Ratio(batch, n) * Ratio(probe, cpu)},
      {"topk.brs", Ratio(batch, n) * Ratio(brs, cpu)},
      {"gir.phase1", Ratio(batch, n) * Ratio(p1, cpu)},
      {"gir.phase2", Ratio(batch, n) * Ratio(p2, cpu)},
      {"geom.intersect", Ratio(batch, n) * Ratio(geom, cpu)},
      {"harness.reply", Ratio(gap, n)},
  };
  double total = 0;
  for (const auto& [name, ms] : q) total += ms;
  std::printf("layer shares of mean query latency (%.0f requests):\n", n);
  std::string lead_q;
  double best = -1;
  for (const auto& [name, ms] : q) {
    PrintShare(name.c_str(), ms, total);
    if (ms > best) best = ms, lead_q = name;
  }

  std::vector<const UpdateRecord*> ups;
  for (const UpdateRecord& u : tr.updates) {
    if (u.measured && u.ok) ups.push_back(&u);
  }
  for (const UpdateRecord& u : isolated) {
    if (u.ok) ups.push_back(&u);
  }
  double wait = 0, apply = 0;
  for (const UpdateRecord* u : ups) {
    wait += u->call_start_ms - u->due_ms;
    apply += u->call_end_ms - u->call_start_ms;
  }
  double wal = 0, mut = 0, frz = 0, inv = 0;
  for (const WriteProbe& p : wp.batches) {
    wal += p.wal_append_ms;
    mut += p.mutate_ms;
    frz += p.refreeze_ms;
    inv += p.invalidate_ms;
  }
  const double wcpu = wal + mut + frz + inv;
  const double m = static_cast<double>(ups.size());
  std::vector<std::pair<std::string, double>> w = {
      {"writer_wait (queue+checkpoint)", Ratio(wait, m)},
      {"storage.wal_append", Ratio(apply, m) * Ratio(wal, wcpu)},
      {"index.mutate", Ratio(apply, m) * Ratio(mut, wcpu)},
      {"index.refreeze", Ratio(apply, m) * Ratio(frz, wcpu)},
      {"gir.invalidate", Ratio(apply, m) * Ratio(inv, wcpu)},
  };
  total = 0;
  for (const auto& [name, ms] : w) total += ms;
  std::printf("layer shares of mean update ack (%zu batches):\n", ups.size());
  std::string lead_u;
  best = -1;
  for (const auto& [name, ms] : w) {
    PrintShare(name.c_str(), ms, total);
    if (ms > best) best = ms, lead_u = name;
  }
  std::printf("leading layer: queries %s, updates %s\n", lead_q.c_str(),
              lead_u.c_str());
  return {lead_q, lead_u};
}

int Run(const Options& opt) {
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const bool traced = opt.trace != 0;
  const auto seed = static_cast<uint64_t>(opt.seed);
  Result<Plan> plan = BuildPlan(*spec, seed, opt.seconds);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.workdir, ec);
  std::filesystem::create_directories(opt.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", opt.workdir.c_str());
    return 2;
  }
  const auto fail = [](const char* what, const Status& s) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    return 1;
  };

  SpanLog spans(traced);
  Clock clock;
  std::printf("girbench %s seed=%lld seconds=%g trace=%lld | nproc=%u "
              "simd=%s build=%s\n",
              spec->name.c_str(), static_cast<long long>(opt.seed),
              opt.seconds, static_cast<long long>(opt.trace),
              std::thread::hardware_concurrency(),
              gir::simd::TierName(gir::simd::ActiveTier()),
              GIRBENCH_BUILD_TYPE);

  // ----- set-up (repeated untraced; the median is setup_s) -----
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  std::unique_ptr<Stack> stack;
  const std::string stack_dir = opt.workdir + "/stack";
  while (setup_s.empty() ||
         (!traced && (setup_s.size() < kMinSetups ||
                      setup_total_s < kMinSetupSeconds))) {
    stack.reset();
    std::filesystem::remove_all(stack_dir, ec);
    const double start = clock.Now();
    Result<std::unique_ptr<Stack>> built =
        SetUp(*spec, stack_dir, &spans, clock);
    if (!built.ok()) return fail("set-up", built.status());
    setup_s.push_back((clock.Now() - start) / 1000.0);
    setup_total_s += setup_s.back();
    stack = std::move(*built);
  }
  std::printf("set-up: %zu times, median %.4f s, %.4f-%.4f s\n",
              setup_s.size(), Median(setup_s),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));

  // ----- write-path shadow (traced run) -----
  // It replays the first batches the stack acks, each right after its
  // ack on the writer's thread, from the same initial dataset, so every
  // shadow batch pairs with a served one under the same load.
  const bool isolated_writes = plan->updates.empty();
  std::unique_ptr<ShadowWriter> shadow;
  AfterAck after_ack;
  if (traced) {
    // The shadow cache mirrors the serving cache: emptied before an
    // isolated write phase, holding the first requests' regions beside
    // concurrent reads.
    std::vector<gir::Vec> warm;
    for (size_t i = 0; !isolated_writes && i < plan->queries.size() &&
                       i < kProbeQueries;
         ++i) {
      warm.push_back(plan->queries[i].weights);
    }
    Result<std::unique_ptr<ShadowWriter>> s = ShadowWriter::Open(
        *spec, MakeDataset(*spec), warm, opt.workdir + "/shadow");
    if (!s.ok()) return fail("write probe", s.status());
    shadow = std::move(*s);
    after_ack = [&](size_t op, const gir::UpdateBatch& b) {
      if (op < kWriteProbeBatches) shadow->Apply(op, b, &spans, clock);
    };
  }

  // ----- traffic: warm-up, then the measured window -----
  TrafficResult tr =
      RunTraffic(*spec, *plan, stack.get(), &spans, clock, after_ack);
  // ru_maxrss only grows: read now, it is the peak of set-up and traffic,
  // before the checks, write phases and restarts below allocate.
  const double traffic_rss_mb = PeakRssMb();

  size_t checked = 0;
  if (plan->updates.empty()) {
    Status answers = CheckAnswers(*spec, *plan, tr, *stack, seed, &checked);
    if (!answers.ok()) return fail("answer check", answers);
  }

  // ----- query layer probe (traced run), on the cache and epoch the
  // traffic left behind -----
  std::vector<gir::Vec> sample;
  std::vector<QueryProbe> qprobe;
  if (traced) {
    std::vector<size_t> sent;
    for (size_t i = 0; i < tr.queries.size(); ++i) {
      if (tr.queries[i].attempted) sent.push_back(i);
    }
    for (size_t s : Sample(sent.size(), kProbeQueries, seed ^ 0x9B0B)) {
      sample.push_back(plan->queries[sent[s]].weights);
    }
    Result<std::vector<QueryProbe>> q =
        ProbeQueries(*spec, stack.get(), sample, &spans, clock);
    if (!q.ok()) return fail("query probe", q.status());
    qprobe = std::move(*q);
  }

  // ----- isolated write phase (read-only workloads) -----
  std::vector<UpdateRecord> isolated = RunIsolatedUpdates(
      plan->isolated, tr.acked, stack.get(), &spans, clock, after_ack,
      &tr.checkpoints);
  size_t acked = tr.acked;
  for (const UpdateRecord& u : isolated) acked += u.ok ? 1 : 0;
  const std::vector<UpdateRecord>& served_updates =
      isolated_writes ? isolated : tr.updates;

  // ----- write and recovery probes (traced run) -----
  WriteProbeSummary wprobe;
  RecoveryProbe rprobe;
  if (traced) {
    Result<WriteProbeSummary> w = shadow->Finish();
    if (!w.ok()) return fail("write probe", w.status());
    wprobe = std::move(*w);
    shadow.reset();
    Result<RecoveryProbe> r = ProbeRecovery(*stack, &spans, clock);
    if (!r.ok()) return fail("recovery probe", r.status());
    rprobe = *r;
  }

  // ----- restart + durability check -----
  std::vector<Reference> refs;
  for (size_t i : Sample(plan->queries.size(), kDurabilitySamples,
                         seed ^ 0xD00D)) {
    Reference ref;
    ref.weights = plan->queries[i].weights;
    Result<gir::GirComputation> g =
        stack->engine->ComputeGir(ref.weights, spec->k, gir::Phase2Method::kFP);
    if (!g.ok()) return fail("pre-restart query", g.status());
    ref.ids = g->topk.result;
    ref.scores = g->topk.scores;
    refs.push_back(std::move(ref));
  }
  const uint64_t epoch_before = stack->engine->dataset_version();
  stack->batch.reset();
  stack->engine.reset();
  // Only the stack's directories are read from here on: its dataset goes
  // too, so the restart's peak resident set is the restart's own.
  stack->data.reset();
  std::vector<double> restart_ms;
  Restart restarted;
  // The engine goes before the disk manager it reads.
  const auto close = [](Restart* r) {
    r->engine.reset();
    r->disk.reset();
  };
  // Restarts are timed to the first answer of one fixed query (equal
  // weights), so restart_ms does not swing with a seed's query mix.
  const gir::Vec first_query(spec->dim, 1.0 / static_cast<double>(spec->dim));
  // One restart is enough for the durability check; the traced run
  // reports restart_ms as the median of several.
  const int restarts = traced ? kRestarts : 1;
  for (int i = 0; i < restarts; ++i) {
    close(&restarted);
    Result<Restart> r =
        RestartEngine(*spec, *stack, first_query, &spans, clock);
    if (!r.ok()) return fail("restart", r.status());
    restarted = std::move(*r);
    restart_ms.push_back(restarted.first_query_ms);
  }
  if (restarted.engine->dataset_version() != acked ||
      epoch_before != acked) {
    std::fprintf(stderr,
                 "durability check: recovered epoch %llu, pre-restart %llu, "
                 "acked batches %zu\n",
                 static_cast<unsigned long long>(
                     restarted.engine->dataset_version()),
                 static_cast<unsigned long long>(epoch_before), acked);
    return 1;
  }
  for (const Reference& ref : refs) {
    Result<gir::GirComputation> g = restarted.engine->ComputeGir(
        ref.weights, spec->k, gir::Phase2Method::kFP);
    if (!g.ok()) return fail("post-restart query", g.status());
    if (g->topk.result != ref.ids || !SameBits(g->topk.scores, ref.scores)) {
      std::fprintf(stderr, "durability check: recovered answer differs\n");
      return 1;
    }
  }
  checked += refs.size();

  // ----- end-to-end accounting -----
  const Loop loop = spec->loop;
  uint64_t attempted = 0, failed = 0, shed = 0, slo_met = 0;
  std::vector<double> latency, gen_lag;
  // (start time, latency) pairs for the sliced tail percentiles.
  std::vector<std::pair<double, double>> timed_latency, timed_ack;
  for (const QueryRecord& r : tr.queries) {
    if (!r.attempted || !r.measured) continue;
    ++attempted;
    gen_lag.push_back(r.submit_start_ms - r.due_ms);
    if (r.shed) {
      ++shed;
    } else if (r.failed) {
      ++failed;
    } else {
      latency.push_back(r.LatencyMs(loop));
      timed_latency.emplace_back(r.reply_ms - r.LatencyMs(loop),
                                 r.LatencyMs(loop));
      if (r.LatencyMs(loop) <= spec->slo_ms) ++slo_met;
    }
  }
  const uint64_t queries_attempted = attempted;
  std::vector<double> ack;
  const auto count_updates = [&](const std::vector<UpdateRecord>& ups) {
    for (const UpdateRecord& u : ups) {
      if (!u.attempted || !u.measured) continue;
      ++attempted;
      if (!u.ok) {
        ++failed;
        continue;
      }
      ack.push_back(u.AckMs());
      timed_ack.emplace_back(u.due_ms, u.AckMs());
    }
  };
  count_updates(tr.updates);
  count_updates(isolated);
  for (const CheckpointRecord& cp : tr.checkpoints) {
    ++attempted;
    if (!cp.ok) ++failed;
  }
  const double gen_lag_p99 = Percentile(gen_lag, 0.99);
  // Every end-to-end figure is the median over kSlices equal time slices
  // of the measured phase of that slice's figure: a stall (a checkpoint
  // fsync, a burst of CPU steal on a shared host) moves a slice or two,
  // not the metric. Acks slice over the write phase they belong to.
  const double ack_start = plan->updates.empty() && !isolated.empty()
                               ? isolated.front().call_start_ms
                               : tr.window_start_ms;
  const double ack_end = plan->updates.empty() && !isolated.empty()
                             ? isolated.back().ack_ms + 1e-9
                             : tr.window_end_ms;
  const auto latency_at = [&](double p) {
    return SlicedPercentile(timed_latency, tr.window_start_ms,
                            tr.window_end_ms, kSlices, p);
  };
  const auto ack_at = [&](double p) {
    return SlicedPercentile(timed_ack, ack_start, ack_end, kSlices, p);
  };
  std::vector<double> served_at;
  for (const auto& [t, ms] : timed_latency) served_at.push_back(t);

  std::printf("samples: %zu query latencies, %zu update acks, %zu answers "
              "checked, %zu batches, %zu checkpoints\n",
              latency.size(), ack.size(), checked, tr.batches.size(),
              tr.checkpoints.size());
  if (tr.plan_exhausted > 0) {
    std::fprintf(stderr, "closed loop ran out of planned queries\n");
    return 1;
  }
  // Only an open loop has due times the generator can fall behind; a
  // closed-loop client's reaction time is reported but never invalid.
  const bool valid = loop == Loop::kClosed || gen_lag_p99 <= kMaxGenLagP99Ms;
  if (!valid) {
    std::printf("INVALID RUN: generator lag p99 %.3f ms exceeds %.1f ms\n",
                gen_lag_p99, kMaxGenLagP99Ms);
  }

  std::vector<MetricValue> out;
  const auto put = [&](const std::vector<MetricDef>& defs, const char* name,
                       double value) {
    const MetricDef* def = FindMetric(defs, name);
    out.push_back(MetricValue{def->name, def->unit, value});
  };
  if (!traced) {
    const auto& e = EndToEndMetrics();
    put(e, "query_p50_ms", latency_at(0.50));
    put(e, "served_qps", SlicedRate(served_at, tr.window_start_ms,
                                    tr.window_end_ms, kSlices));
    put(e, "slo_met_ratio", Ratio(slo_met, queries_attempted));
    put(e, "ok_ratio", 1.0 - Ratio(failed + shed, attempted));
    // The workload's own phases: set-up and traffic, and on write_mix the
    // restart it ends with. The read-only workloads' isolated write phase
    // and restart only serve the checks and the traced run.
    put(e, "rss_mb", isolated_writes ? traffic_rss_mb : PeakRssMb());
    put(e, "setup_s", Median(setup_s));
  } else {
    AddRequestPhases(*spec, tr, isolated, &spans);
    const std::vector<Span> all = spans.Snapshot();
    // Attribution pairs layer self-times with a latency taken by another
    // timer on the same request. Queries: the probed BRS, Phase 1,
    // Phase 2 and intersection calls against the same query's whole
    // ComputeGir. Updates: the shadow's WAL append, mutation, refreeze
    // and invalidation of a batch, plus the writer's measured wait,
    // against the served ack of that batch.
    std::vector<Attribution> qattr, uattr;
    for (const QueryProbe& p : qprobe) {
      qattr.push_back(
          {{p.brs_ms, p.phase1_ms, p.phase2_ms, p.intersect_ms},
           p.compute_gir_ms});
    }
    for (const WriteProbe& p : wprobe.batches) {
      const UpdateRecord& u = served_updates[p.op];
      uattr.push_back({{u.call_start_ms - u.due_ms, p.wal_append_ms,
                        p.mutate_ms, p.refreeze_ms, p.invalidate_ms},
                       u.AckMs()});
    }

    double adm = 0, disp = 0, served = 0, hits = 0, partial = 0;
    for (const QueryRecord& r : tr.queries) {
      if (!r.measured || !Served(r)) continue;
      ++served;
      adm += r.form_start_ms - r.submit_end_ms;
      disp += r.batch_start_ms - r.form_end_ms;
      hits += r.hit == HitKind::kExact;
      partial += r.hit == HitKind::kPartial;
    }
    double occupancy = 0, batch_ms = 0, batch_q = 0, dup = 0, charged = 0,
           amortized = 0, nb = 0, live_spans = 0;
    for (const BatchRecord& b : tr.batches) {
      if (!b.measured) continue;
      ++nb;
      occupancy += Ratio(b.size, spec->max_batch);
      batch_ms += b.end_ms - b.start_ms;
      batch_q += b.size;
      dup += b.stats.duplicate_hits;
      charged += b.stats.charged_reads;
      amortized += b.stats.amortized_reads;
    }
    for (const Span& s : all) live_spans += std::strcmp(s.cat, "call") == 0;
    std::vector<double> pu, brs, brs_reads, p1, p2, p2r, p2c, isect, cons;
    double useful = 0, cand = 0;
    for (const QueryProbe& p : qprobe) {
      pu.push_back(p.cache_probe_us);
      brs.push_back(p.brs_ms);
      brs_reads.push_back(static_cast<double>(p.brs_reads));
      p1.push_back(p.phase1_ms);
      p2.push_back(p.phase2_ms);
      p2r.push_back(static_cast<double>(p.phase2_reads));
      p2c.push_back(static_cast<double>(p.phase2_candidates));
      isect.push_back(p.intersect_ms);
      cons.push_back(static_cast<double>(p.constraints));
      useful += p.useful_phase2;
      cand += p.phase2_candidates;
    }
    std::vector<double> wal, mut, frz, frz_bytes, inv, lp;
    double evicted = 0, entries = 0;
    for (const WriteProbe& p : wprobe.batches) {
      wal.push_back(p.wal_append_ms);
      mut.push_back(p.mutate_ms);
      frz.push_back(p.refreeze_ms);
      frz_bytes.push_back(static_cast<double>(p.refreeze_bytes));
      inv.push_back(p.invalidate_ms);
      lp.push_back(static_cast<double>(p.lp_tests));
      evicted += p.evicted;
      entries += p.cache_entries;
    }
    std::vector<double> cp;
    for (const Span& s : all) {
      if (std::strcmp(s.name, "Checkpoint") == 0) cp.push_back(s.duration_ms());
    }
    const double mean_latency = Mean(latency);
    const double overhead_pct =
        100.0 * Ratio(live_spans, served) * SpanAddCostMs() /
        std::max(mean_latency, 1e-9);

    const auto& l = PerLayerMetrics();
    put(l, "query_p90_ms", latency_at(0.90));
    put(l, "query_p99_ms", latency_at(0.99));
    put(l, "update_ack_p50_ms", ack_at(0.50));
    put(l, "update_ack_p99_ms", ack_at(0.99));
    put(l, "restart_ms", Median(restart_ms));
    put(l, "serve.admission_wait_ms", Ratio(adm, served));
    put(l, "serve.dispatch_wait_ms", Ratio(disp, served));
    put(l, "serve.batch_occupancy", Ratio(occupancy, nb));
    put(l, "serve.shed_ratio", Ratio(shed, queries_attempted));
    put(l, "gir.batch_ms", Ratio(batch_ms, nb));
    put(l, "gir.batch_ms_per_query", Ratio(batch_ms, batch_q));
    put(l, "gir.dedupe_ratio", Ratio(dup, batch_q));
    put(l, "gir.read_amortization", Ratio(charged, amortized));
    put(l, "gir.cache_probe_us", Mean(pu));
    put(l, "gir.cache_hit_ratio", Ratio(hits, served));
    put(l, "gir.cache_partial_ratio", Ratio(partial, served));
    put(l, "topk.brs_ms", Mean(brs));
    put(l, "topk.reads_per_query", Mean(brs_reads));
    put(l, "gir.phase1_ms", Mean(p1));
    put(l, "gir.phase2_ms", Mean(p2));
    put(l, "gir.phase2_reads", Mean(p2r));
    put(l, "gir.phase2_candidates", Mean(p2c));
    put(l, "gir.phase2_useful_ratio", Ratio(useful, cand));
    put(l, "geom.intersect_ms", Mean(isect));
    put(l, "geom.constraints", Mean(cons));
    put(l, "storage.wal_append_ms", Mean(wal));
    put(l, "storage.wal_fsyncs_per_batch",
        Ratio(static_cast<double>(wprobe.fsyncs), wprobe.batches.size()));
    put(l, "storage.wal_write_amp",
        Ratio(static_cast<double>(wprobe.log_bytes),
              static_cast<double>(wprobe.payload_bytes)));
    put(l, "index.mutate_ms", Mean(mut));
    put(l, "index.refreeze_ms", Mean(frz));
    put(l, "index.refreeze_bytes", Mean(frz_bytes));
    put(l, "gir.invalidate_ms", Mean(inv));
    put(l, "gir.invalidate_lp_tests", Mean(lp));
    put(l, "gir.invalidate_evict_ratio", Ratio(evicted, entries));
    put(l, "storage.checkpoint_ms", Mean(cp));
    put(l, "storage.arena_open_ms", rprobe.arena_open_ms);
    put(l, "storage.wal_replay_ms", rprobe.wal_replay_ms);
    put(l, "storage.wal_replayed_batches",
        static_cast<double>(rprobe.replayed_batches));
    put(l, "harness.gen_lag_p99_ms", gen_lag_p99);
    put(l, "harness.query_attribution_ratio", AttributionRatio(qattr));
    put(l, "harness.update_attribution_ratio", AttributionRatio(uattr));
    put(l, "harness.trace_overhead_pct", overhead_pct);

    PrintShares(*spec, tr, isolated, qprobe, wprobe);
    std::printf("attribution: %zu probed queries, %zu paired update batches\n",
                qattr.size(), uattr.size());
    if (!opt.trace_out.empty()) {
      std::ofstream f(opt.trace_out);
      f << ChromeTraceJson(
          all, {{"workload", spec->name},
                {"seed", std::to_string(opt.seed)},
                {"nproc", std::to_string(std::thread::hardware_concurrency())},
                {"simd", gir::simd::TierName(gir::simd::ActiveTier())},
                {"build", GIRBENCH_BUILD_TYPE}});
      if (!f) std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
      std::printf("chrome trace: %s (%zu spans)\n", opt.trace_out.c_str(),
                  all.size());
    }
  }

  for (const MetricValue& m : out) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("peak rss: %.1f MB through the traffic, %.1f MB over the run\n",
              traffic_rss_mb, PeakRssMb());
  close(&restarted);
  stack.reset();
  std::filesystem::remove_all(opt.workdir, ec);
  const bool correct = valid && failed == 0;
  std::printf("%s\n", ResultLine(correct, attempted, failed, out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace girbench

int main(int argc, char** argv) {
  girbench::Options opt;
  gir::FlagSet flags;
  flags.AddString("workload", &opt.workload, "workload name (BENCHMARK.json)");
  flags.AddInt("seed", &opt.seed, "input seed");
  flags.AddDouble("seconds", &opt.seconds, "measured window");
  flags.AddInt("trace", &opt.trace, "1 = traced run with layer probes");
  flags.AddString("workdir", &opt.workdir, "scratch directory (removed)");
  flags.AddString("trace_out", &opt.trace_out,
                  "Chrome trace-event JSON output of the traced run");
  gir::Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == gir::StatusCode::kNotFound ? 0 : 2;
  return girbench::Run(opt);
}
