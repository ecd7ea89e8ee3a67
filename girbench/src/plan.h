#ifndef GIRBENCH_PLAN_H_
#define GIRBENCH_PLAN_H_

// Workload table and seeded operation plans. Everything a run sends to
// the engine is fixed here, before the first request: the same
// (workload, seed, seconds) always yields the bit-identical plan, and
// the engine only ever sees the generated inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "geom/vec.h"
#include "gir/update_batch.h"

namespace girbench {

enum class Loop { kOpen, kClosed };

struct WorkloadSpec {
  std::string name;
  // Data: IND over [0,1]^dim, n records, FP Phase 2, order-sensitive GIR.
  size_t n = 0;
  size_t dim = 0;
  size_t k = 20;
  size_t cache_capacity = 256;

  // Query traffic. Open loop: Poisson arrivals at query_qps. Closed
  // loop: `clients` outstanding requests, each resubmitted on reply.
  Loop loop = Loop::kOpen;
  double query_qps = 0.0;
  size_t clients = 0;
  // serve::GenerateTrace population: Zipf(zipf_s) over key_pool keys
  // whose weights are fixed (kCatalogSeed), jitter_prob of queries
  // personalized. fresh_weights = every query
  // personalized and the pool as large as the plan (no repeats).
  size_t key_pool = 64;
  double zipf_s = 1.1;
  double jitter_prob = 0.3;
  bool fresh_weights = false;

  // Concurrent write stream (write_mix): update batches of
  // update_records records (half inserts, half deletes), due every
  // 1/update_bps seconds. 0 = read-only workload.
  double update_bps = 0.0;
  size_t update_records = 8;
  // Read-only workloads measure update acks in an isolated write phase
  // of this many batches after the read phase: no concurrent readers,
  // empty cache, each ack timed from its call.
  size_t isolated_updates = 0;

  // Admission (serve::AdmissionOptions).
  size_t max_batch = 32;
  double max_wait_ms = 2.0;
  // Latency limit of the workload: a query replied later than this, or
  // shed, or failed, misses the SLO. Also the admission deadline.
  double slo_ms = 0.0;
};

// The dataset is each workload's fixed catalog, drawn from this seed, as
// are the hot set's key weights; the run seed draws the traffic and the
// update payloads. (Phase-2 cost
// follows the catalog's skyline, which differs between IND draws; a
// per-seed catalog would put that spread into every metric.)
constexpr uint64_t kCatalogSeed = 2014;
// Unmeasured warm-up traffic before the measured window.
constexpr double kWarmupSeconds = 1.0;
// The writer checkpoints after every this many acked batches.
constexpr size_t kCheckpointEvery = 64;

// The benchmark's workloads: BENCHMARK.json's, in its order, then
// cold_d5 and write_mix, which it leaves out because their latencies
// swing with the host's CPU speed and steal (README.md).
const std::vector<WorkloadSpec>& Workloads();
// Null when no workload has this name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct QueryOp {
  uint64_t id = 0;
  double due_ms = 0.0;  // offset from run start; closed loop ignores it
  gir::Vec weights;
};

struct UpdateOp {
  double due_ms = 0.0;  // concurrent stream only
  gir::UpdateBatch batch;
};

struct Plan {
  // Queries in due order. Warm-up requests come first (due before
  // kWarmupSeconds); only requests due in [warm-up, warm-up + seconds)
  // count.
  std::vector<QueryOp> queries;
  // Concurrent updates (write_mix), in due order; they apply in this
  // order, so every delete targets a live record.
  std::vector<UpdateOp> updates;
  // Isolated write phase (read-only workloads), in apply order.
  std::vector<UpdateOp> isolated;
  double warmup_ms = 0.0;
  double measure_ms = 0.0;
};

// Closed-loop plans hold this many queries per second of run, an upper
// bound on what the closed loop can consume.
constexpr double kClosedLoopQpsCap = 1000.0;

// Builds the plan for one run. InvalidArgument on non-positive seconds.
gir::Result<Plan> BuildPlan(const WorkloadSpec& spec, uint64_t seed,
                            double seconds);

}  // namespace girbench

#endif  // GIRBENCH_PLAN_H_
