// Chaos replay: the full serving stack (traffic generator -> admission
// -> shared-traversal batches -> retries) driven against seeded fault
// schedules. The invariants: the process never crashes, every request
// gets exactly one explicit outcome (conservation), every *served*
// result is bit-identical to the fault-free reference — degradation is
// allowed, wrong answers and silent drops are not — and a fixed plan
// replays the same fault schedule run after run. An arena-recovery
// epilogue then proves the post-chaos engine state survives a crash.
// GIR_CHAOS_STRESS=1 (the stress-labeled CTest variant) scales the
// schedule up ~6x.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "gir/batch_engine.h"
#include "gir/engine.h"
#include "serve/replay.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage/snapshot_store.h"
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

bool StressMode() {
  const char* env = std::getenv("GIR_CHAOS_STRESS");
  return env != nullptr && env[0] == '1';
}

TrafficConfig ChaosTrace() {
  TrafficConfig c;
  c.seed = 4057;
  c.dim = 3;
  c.k = 8;
  c.events = StressMode() ? 900 : 150;
  c.base_qps = 3000.0;
  c.key_pool = 10;
  c.zipf_s = 1.1;
  c.jitter_prob = 0.3;
  c.update_ratio = 0.1;
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

// The low-rate transient-fault schedule every chaos run replays.
FaultPlan ChaosPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.read_error_rate = 0.005;
  plan.read_latency_rate = 0.002;
  plan.latency_spike_ms = 0.05;  // real sleep: keep it tiny
  return plan;
}

// Shed-free replay (huge deadlines) so admission timing cannot change
// which queries run — faults and retries are the only variable.
// modeled_ms_per_read > 0 replaces the measured service clock with a
// read-count model (ReplayOptions), so batch composition is
// reproducible.
Result<ServiceReport> ChaosReplay(const Trace& trace, Dataset* data,
                                  FaultInjector* injector, size_t threads,
                                  double modeled_ms_per_read = 0.0) {
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(data, &disk, MakeScoring("Linear", trace.config.dim)));
  if (injector != nullptr) disk.AttachFaultInjector(injector);
  BatchOptions opts;
  opts.threads = threads;
  opts.cache_capacity = 0;  // every query exercises the storage path
  opts.exec.shared_traversal = true;
  opts.exec.max_retries = 3;
  opts.exec.retry_backoff_ms = 0.01;
  BatchEngine batch(engine.get(), opts);
  ReplayOptions ro;
  ro.admission.max_batch = 16;
  ro.admission.deadline_ms = 1e12;
  ro.admission.queue_capacity = 1 << 20;
  ro.admission.max_width = 8;
  ro.adaptive_width = true;
  ro.modeled_ms_per_read = modeled_ms_per_read;
  Result<ServiceReport> report = ReplayTrace(trace, &batch, ro);
  disk.AttachFaultInjector(nullptr);
  return report;
}

TEST(ChaosReplayTest, ServedResultsStayBitwiseCorrectUnderFaults) {
  TierGuard guard;
  Result<Trace> trace = GenerateTrace(ChaosTrace());
  ASSERT_TRUE(trace.ok());
  ASSERT_GT(trace->updates, 0u);

  // Fault-free reference outcomes, per query ordinal.
  ASSERT_EQ(simd::ForceTier(simd::Tier::kScalar), simd::Tier::kScalar);
  Dataset ref_data = FreshData(trace->config);
  Result<ServiceReport> ref = ChaosReplay(*trace, &ref_data, nullptr, 2);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_EQ(ref->outcomes.size(), trace->queries);
  ASSERT_EQ(ref->metrics.failed, 0u);

  const size_t schedules = StressMode() ? 4 : 2;
  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (simd::ForceTier(tier) != tier) continue;  // unsupported CPU
    SCOPED_TRACE(simd::TierName(tier));
    for (size_t s = 0; s < schedules; ++s) {
      SCOPED_TRACE("schedule " + std::to_string(s));
      FaultInjector injector(ChaosPlan(90 + s));
      Dataset data = FreshData(trace->config);
      Result<ServiceReport> report = ChaosReplay(*trace, &data, &injector, 2);
      ASSERT_TRUE(report.ok()) << report.status().ToString();

      // Conservation: every query event has exactly one explicit
      // outcome; nothing vanished.
      const ServiceMetrics& m = report->metrics;
      ASSERT_EQ(report->outcomes.size(), trace->queries);
      EXPECT_EQ(m.requests, trace->queries);
      EXPECT_EQ(m.served + m.shed + m.failed, m.requests);
      EXPECT_EQ(m.shed, 0u);  // shed-free config
      // Every failure here is a terminal storage fault, explicitly
      // classified — no other failure source exists in this trace.
      EXPECT_EQ(m.unavailable, m.failed);

      size_t served = 0;
      for (size_t q = 0; q < trace->queries; ++q) {
        const RequestOutcome& out = report->outcomes[q];
        if (!out.status.ok()) {
          EXPECT_EQ(out.status.code(), StatusCode::kUnavailable)
              << "query " << q;
          continue;
        }
        ++served;
        // Degraded service may drop queries; it may never corrupt one.
        EXPECT_EQ(out.topk, ref->outcomes[q].topk) << "query " << q;
      }
      EXPECT_EQ(served, m.served);
      // The schedule actually bit (else this run proved nothing), and
      // retries absorbed most of it.
      EXPECT_GT(injector.total_faults(), 0u);
      EXPECT_GE(m.fault_retries, m.failed);
      EXPECT_GT(m.Availability(), 0.9);
    }
  }
}

TEST(ChaosReplayTest, FixedPlanReplaysTheSameFaultSchedule) {
  TierGuard guard;
  ASSERT_EQ(simd::ForceTier(simd::Tier::kScalar), simd::Tier::kScalar);
  Result<Trace> trace = GenerateTrace(ChaosTrace());
  ASSERT_TRUE(trace.ok());
  // Admission is work-conserving, so a batch holds whatever arrived
  // while the previous one ran. The modeled service clock makes that a
  // function of the trace and the read counts, not of wall time.
  constexpr double kMsPerRead = 0.1;

  // Single-threaded, so the checked-read op sequence is deterministic;
  // the plan then pins the whole fault schedule bit-identically.
  FaultInjector a(ChaosPlan(7));
  Dataset data_a = FreshData(trace->config);
  Result<ServiceReport> run_a =
      ChaosReplay(*trace, &data_a, &a, 1, kMsPerRead);
  ASSERT_TRUE(run_a.ok());

  FaultInjector b(ChaosPlan(7));
  Dataset data_b = FreshData(trace->config);
  Result<ServiceReport> run_b =
      ChaosReplay(*trace, &data_b, &b, 1, kMsPerRead);
  ASSERT_TRUE(run_b.ok());

  // The timed trace really loads the server: batches carry several
  // queries, so the schedule pins batch composition too.
  EXPECT_LT(run_a->metrics.batches, trace->queries);
  EXPECT_EQ(run_a->metrics.batches, run_b->metrics.batches);
  EXPECT_GT(a.total_faults(), 0u);
  EXPECT_EQ(a.total_faults(), b.total_faults());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(run_a->metrics.served, run_b->metrics.served);
  EXPECT_EQ(run_a->metrics.failed, run_b->metrics.failed);
  EXPECT_EQ(run_a->metrics.fault_retries, run_b->metrics.fault_retries);
  ASSERT_EQ(run_a->outcomes.size(), run_b->outcomes.size());
  for (size_t q = 0; q < run_a->outcomes.size(); ++q) {
    EXPECT_EQ(run_a->outcomes[q].status.code(),
              run_b->outcomes[q].status.code())
        << "query " << q;
    EXPECT_EQ(run_a->outcomes[q].topk, run_b->outcomes[q].topk)
        << "query " << q;
  }
}

TEST(ChaosReplayTest, PostChaosStateSurvivesCrashAndRecovery) {
  TierGuard guard;
  ASSERT_EQ(simd::ForceTier(simd::Tier::kScalar), simd::Tier::kScalar);
  Result<Trace> trace = GenerateTrace(ChaosTrace());
  ASSERT_TRUE(trace.ok());

  // Run the chaos trace to mutate the engine through many epochs, then
  // checkpoint the survivor state.
  Dataset data = FreshData(trace->config);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", trace->config.dim)));
  FaultInjector injector(ChaosPlan(55));
  disk.AttachFaultInjector(&injector);
  BatchOptions opts;
  opts.threads = 2;
  opts.cache_capacity = 0;
  opts.exec.shared_traversal = true;
  opts.exec.max_retries = 3;
  opts.exec.retry_backoff_ms = 0.01;
  BatchEngine batch(engine.get(), opts);
  ReplayOptions ro;
  ro.admission.deadline_ms = 1e12;
  ro.admission.queue_capacity = 1 << 20;
  ASSERT_TRUE(ReplayTrace(*trace, &batch, ro).ok());
  disk.AttachFaultInjector(nullptr);
  ASSERT_GT(engine->dataset_version(), 0u);

  const std::filesystem::path tmp = testing::TempDir();
  const std::string dir = (tmp / "chaos_recovery").string();
  const std::string wal_dir = (tmp / "chaos_recovery_wal").string();
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(wal_dir);
  SnapshotStore store(dir);
  ASSERT_TRUE(engine->Checkpoint(&store).ok());

  // "Crash", recover an updatable engine (the master thawed out of the
  // arena), and serve: the restored engine answers every probe
  // bit-identically — including the simulated I/O charged.
  DiskManager disk2;
  auto restored = OpenEngineOrDie(
      EngineConfig::FromArena(dir, &disk2,
                              MakeScoring("Linear", trace->config.dim))
          .WithWal(wal_dir));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->dataset_version(), engine->dataset_version());
  Rng rng(31);
  for (int probe = 0; probe < 10; ++probe) {
    Vec w(trace->config.dim);
    double sum = 0.0;
    for (double& x : w) sum += (x = 0.05 + rng.Uniform());
    for (double& x : w) x /= sum;
    auto a = engine->ComputeGir(w, trace->config.k, Phase2Method::kFP);
    auto b = restored->ComputeGir(w, trace->config.k, Phase2Method::kFP);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->topk.result, b->topk.result);
    EXPECT_EQ(a->topk.scores, b->topk.scores);
    EXPECT_EQ(a->topk.io.reads, b->topk.io.reads);
  }
}

// WAL crash-point sweep: a single injected fault — torn append, corrupt
// append, or fsync EIO — is walked across every commit ordinal (killing
// the writer before, during and after each record's commit in turn). For
// every crash point, recovery from the epoch-0 checkpoint arena + WAL
// must reproduce exactly the acknowledged prefix: every acked batch
// survives bit-identically, no batch whose ack failed is ever replayed.
TEST(ChaosReplayTest, WalCrashPointSweepPreservesExactlyTheAckedPrefix) {
  TierGuard guard;
  ASSERT_EQ(simd::ForceTier(simd::Tier::kScalar), simd::Tier::kScalar);
  const size_t d = 3;
  const size_t n = 120;
  const size_t epochs = StressMode() ? 12 : 5;

  struct Kind {
    const char* name;
    void (*arm)(FaultPlan*);
  };
  const Kind kinds[] = {
      {"torn", [](FaultPlan* p) { p->wal_torn_rate = 1.0; }},
      {"corrupt", [](FaultPlan* p) { p->wal_corrupt_rate = 1.0; }},
      {"fsync", [](FaultPlan* p) { p->wal_fsync_error_rate = 1.0; }},
  };

  auto mixed_batch = [d](uint64_t e) {
    Rng rng(9000 + e);
    UpdateBatch batch;
    Vec p(d);
    for (double& x : p) x = rng.Uniform();
    batch.inserts.push_back(p);
    batch.deletes = {static_cast<RecordId>(2 * e)};
    return batch;
  };

  for (const Kind& kind : kinds) {
    for (size_t crash_op = 0; crash_op <= epochs; ++crash_op) {
      SCOPED_TRACE(std::string(kind.name) + " at op " +
                   std::to_string(crash_op));
      const std::string tag = std::string("wal_sweep_") + kind.name + "_" +
                              std::to_string(crash_op);
      const std::string snap_dir =
          (std::filesystem::path(testing::TempDir()) / (tag + "_snap"))
              .string();
      const std::string wal_dir =
          (std::filesystem::path(testing::TempDir()) / (tag + "_wal"))
              .string();
      std::filesystem::remove_all(snap_dir);
      std::filesystem::remove_all(wal_dir);

      FaultPlan plan;
      plan.seed = 500 + crash_op;
      plan.skip_ops = crash_op;
      plan.max_faults = 1;
      kind.arm(&plan);
      FaultInjector fi(plan);

      Rng data_rng(kDataSeed);
      Result<Dataset> data = GenerateByName("IND", n, d, data_rng);
      ASSERT_TRUE(data.ok());
      DiskManager disk;
      auto engine = OpenEngineOrDie(
          EngineConfig::FromDataset(&*data, &disk, MakeScoring("Linear", d))
              .WithWal(wal_dir, &fi));
      SnapshotStore store(snap_dir);
      ASSERT_TRUE(engine->Checkpoint(&store).ok());

      uint64_t acked = 0;
      for (uint64_t e = 1; e <= epochs; ++e) {
        if (engine->ApplyUpdates(mixed_batch(e)).ok()) {
          acked = e;
        } else {
          break;  // the injected crash hit this commit
        }
      }
      // skip_ops pins the fault to commit ordinal crash_op, so exactly
      // that many batches were acknowledged first (all of them when the
      // fault never fired).
      EXPECT_EQ(acked, std::min<uint64_t>(crash_op, epochs));

      // The reference timeline: exactly the acked batches, no WAL.
      Rng ref_rng(kDataSeed);
      Result<Dataset> ref_data = GenerateByName("IND", n, d, ref_rng);
      ASSERT_TRUE(ref_data.ok());
      DiskManager ref_disk;
      auto reference = OpenEngineOrDie(EngineConfig::FromDataset(
          &*ref_data, &ref_disk, MakeScoring("Linear", d)));
      for (uint64_t e = 1; e <= acked; ++e) {
        ASSERT_TRUE(reference->ApplyUpdates(mixed_batch(e)).ok());
      }

      // Crash, recover (clean device), compare: the acked prefix and
      // nothing else, bit-identically.
      DiskManager disk2;
      auto restored = OpenEngineOrDie(
          EngineConfig::FromArena(snap_dir, &disk2, MakeScoring("Linear", d))
              .WithWal(wal_dir));
      EXPECT_EQ(restored->dataset_version(), acked);
      const Dataset& want = reference->dataset();
      const Dataset& got = restored->dataset();
      ASSERT_EQ(got.size(), want.size());
      ASSERT_EQ(got.live_size(), want.live_size());
      for (size_t i = 0; i < want.size(); ++i) {
        const RecordId id = static_cast<RecordId>(i);
        ASSERT_EQ(got.IsLive(id), want.IsLive(id)) << "record " << i;
        for (size_t j = 0; j < d; ++j) {
          ASSERT_EQ(got.Get(id)[j], want.Get(id)[j])
              << "record " << i << " dim " << j;
        }
      }
      Rng probe_rng(61);
      for (int probe = 0; probe < 3; ++probe) {
        Vec w(d);
        for (double& x : w) x = 0.05 + probe_rng.Uniform(0.0, 0.95);
        auto a = reference->ComputeGir(w, 8, Phase2Method::kFP);
        auto b = restored->ComputeGir(w, 8, Phase2Method::kFP);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a->topk.result, b->topk.result);
        EXPECT_EQ(a->topk.scores, b->topk.scores);
      }
    }
  }
}

}  // namespace
}  // namespace gir::serve
