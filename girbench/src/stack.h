#ifndef GIRBENCH_STACK_H_
#define GIRBENCH_STACK_H_

// The serving stack under test and the traffic that drives it on real
// threads:
//
//   generator thread --Submit--> serve::AdmissionQueue
//   serving thread   --Form--> BatchEngine::ComputeBatch (shared
//                    traversal, ShardedGirCache, nproc-thread pool)
//                    --> GirEngine (default options: FP + polytope)
//   writer thread    --> BatchEngine::ApplyUpdates (WAL-attached,
//                    fsync per group commit) + GirEngine::Checkpoint
//
// The benchmark times requests from the outside and records call spans
// around these calls when tracing is on; the engine itself is not
// instrumented.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "gir/batch_engine.h"
#include "gir/engine.h"
#include "plan.h"
#include "spans.h"
#include "storage/disk_manager.h"
#include "storage/snapshot_store.h"

namespace girbench {

// Milliseconds since the run started, on the steady clock.
class Clock {
 public:
  Clock() : t0_(std::chrono::steady_clock::now()) {}
  double Now() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }
  std::chrono::steady_clock::time_point At(double ms) const {
    return t0_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

// The initial dataset of a workload (IND from kCatalogSeed).
gir::Dataset MakeDataset(const WorkloadSpec& spec);

// One live serving stack over its own snapshot and WAL directories.
// Members are declared in dependency order: the engine reads `data`
// and `disk`, the batch engine reads the engine.
struct Stack {
  std::string dir;  // holds snap/ and wal/
  std::unique_ptr<gir::Dataset> data;
  std::unique_ptr<gir::DiskManager> disk;
  std::unique_ptr<gir::SnapshotStore> store;
  std::unique_ptr<gir::GirEngine> engine;
  std::unique_ptr<gir::BatchEngine> batch;

  std::string snap_dir() const { return dir + "/snap"; }
  std::string wal_dir() const { return dir + "/wal"; }
};

// The benchmark's engine and batch configuration (pool threads: nproc,
// or nproc - 1 in an open loop).
gir::BatchOptions ServingBatchOptions(const WorkloadSpec& spec);

// Set-up, the part setup_s times: generate the dataset, GirEngine::Open
// (bulk load + freeze) with the WAL attached, and the initial
// checkpoint. `dir` must not exist yet.
gir::Result<std::unique_ptr<Stack>> SetUp(const WorkloadSpec& spec,
                                          const std::string& dir,
                                          SpanLog* spans, const Clock& clock);

// What happened to one planned query.
struct QueryRecord {
  bool attempted = false;
  bool measured = false;  // due (open) / submitted (closed) in the window
  bool shed = false;      // refused by admission (Submit or Form)
  bool failed = false;    // ComputeBatch item with a non-ok status
  double due_ms = 0.0;
  double submit_start_ms = 0.0;
  double submit_end_ms = 0.0;
  double form_start_ms = 0.0;
  double form_end_ms = 0.0;
  double batch_start_ms = 0.0;
  double batch_end_ms = 0.0;
  double reply_ms = 0.0;
  gir::ShardedGirCache::HitKind hit = gir::ShardedGirCache::HitKind::kMiss;
  uint64_t epoch = 0;  // epoch pinned when its batch started
  std::vector<gir::RecordId> topk;
  std::vector<double> scores;  // empty for cache hits

  // Per-request latency: from due time (open loop) or submit (closed).
  double LatencyMs(Loop loop) const {
    return reply_ms - (loop == Loop::kOpen ? due_ms : submit_start_ms);
  }
};

struct UpdateRecord {
  bool attempted = false;
  bool measured = false;
  bool ok = false;
  double due_ms = 0.0;
  double call_start_ms = 0.0;
  double call_end_ms = 0.0;
  double ack_ms = 0.0;

  double AckMs() const { return ack_ms - due_ms; }
};

struct BatchRecord {
  bool measured = false;
  double start_ms = 0.0;
  double end_ms = 0.0;
  size_t size = 0;
  gir::BatchStats stats;
};

struct CheckpointRecord {
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool ok = false;
};

struct TrafficResult {
  std::vector<QueryRecord> queries;  // by plan position
  std::vector<UpdateRecord> updates;  // by plan position
  std::vector<BatchRecord> batches;
  std::vector<CheckpointRecord> checkpoints;
  double window_start_ms = 0.0;
  double window_end_ms = 0.0;
  size_t acked = 0;  // batches acked during the traffic phase
  size_t plan_exhausted = 0;  // closed loop ran out of planned queries
};

// Called on the applying thread right after the stack acked the update
// at position `op` of its list, before any checkpoint; empty = no call.
using AfterAck = std::function<void(size_t op, const gir::UpdateBatch&)>;

// Drives the plan's queries (and concurrent updates) through the stack
// on real threads, starting now on `clock`. Returns once every thread
// has joined. Spans go to `spans` when it is enabled.
TrafficResult RunTraffic(const WorkloadSpec& spec, const Plan& plan,
                         Stack* stack, SpanLog* spans, const Clock& clock,
                         const AfterAck& after_ack);

// Applies `ops` one after another from this thread (no concurrent
// readers) on an emptied cache, each timed from its call; checkpoints
// like the writer.
std::vector<UpdateRecord> RunIsolatedUpdates(const std::vector<UpdateOp>& ops,
                                             size_t acked_before, Stack* stack,
                                             SpanLog* spans,
                                             const Clock& clock,
                                             const AfterAck& after_ack,
                                             std::vector<CheckpointRecord>* cps);

// One restart: GirEngine::Open from the newest checkpoint plus the WAL
// tail, timed until the first query (`first_query`) is served.
struct Restart {
  std::unique_ptr<gir::DiskManager> disk;
  std::unique_ptr<gir::GirEngine> engine;
  double first_query_ms = 0.0;  // Open start -> first query served
};
gir::Result<Restart> RestartEngine(const WorkloadSpec& spec, const Stack& stack,
                                   const gir::Vec& first_query, SpanLog* spans,
                                   const Clock& clock);

}  // namespace girbench

#endif  // GIRBENCH_STACK_H_
