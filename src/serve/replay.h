#ifndef GIR_SERVE_REPLAY_H_
#define GIR_SERVE_REPLAY_H_

#include <vector>

#include "gir/batch_engine.h"
#include "serve/admission.h"
#include "serve/service_metrics.h"
#include "serve/traffic_gen.h"

namespace gir::serve {

struct ReplayOptions {
  AdmissionOptions admission;
  // Adaptive: each formed batch runs with its archetype-cluster groups
  // and adaptively chosen width. Static: plain chunking at
  // static_width — the baseline serve_replay_test compares against
  // (ServeReplayTest.AdaptiveAndStaticWidthAnswerIdentically).
  bool adaptive_width = true;
  size_t static_width = 64;
  Phase2Method method = Phase2Method::kFP;
  double window_ms = 1000.0;  // sliding-window metric width
  // Service clock. 0: each batch advances the busy clock by its
  // measured compute wall time and each update by its measured
  // ApplyUpdates time, so queueing and shedding follow real engine
  // speed. > 0: a batch advances it by this many ms per physical page
  // read it performed (BatchStats::amortized_reads) and updates are
  // free. Batch composition then depends only on the trace and the
  // engine's read counts, so a single-threaded run, and with it the
  // page-read order a FaultPlan keys on, reproduces exactly.
  double modeled_ms_per_read = 0.0;
};

// Outcome of one query event, in trace order. status is Ok (topk
// filled), a ResourceExhausted shed, or a per-query engine error.
struct RequestOutcome {
  uint64_t id = 0;  // query ordinal within the trace
  Status status = Status::Ok();
  std::vector<RecordId> topk;
  RequestTiming timing;
};

struct ServiceReport {
  ServiceMetrics metrics;
  std::vector<RequestOutcome> outcomes;  // one per trace query event
  // Engine-side aggregates across all executed batches.
  uint64_t charged_reads = 0;
  uint64_t amortized_reads = 0;
  uint64_t deadline_misses = 0;
  double compute_ms = 0.0;  // real engine busy time (measured)
  double update_ms = 0.0;   // real ApplyUpdates time (measured)
};

// Open-loop trace replay against a BatchEngine, on a virtual service
// clock: arrivals happen at their trace timestamps, batch formation is
// work-conserving (up to max_batch requests fire at max(oldest
// enqueue, server free), shedding any whose deadline already passed;
// update events are barriers), and each batch's *measured* compute
// wall time advances a single-server busy clock — so queueing delay,
// batch latency and shedding emerge from real engine speed at the
// configured arrival rate, even on one core. Under the measured clock
// which queries share a batch depends on timing; modeled_ms_per_read
// makes it reproducible. Per-request results are
// bit-identical to direct ComputeGir calls in arrival order with the
// same update barriers (grouping, batching and width never change
// results — the shared-traversal contract), which is what the
// determinism test pins.
//
// Every query event gets exactly one outcome: served, explicitly shed
// (ResourceExhausted), or failed — never silently dropped. Requires an
// engine with shared_traversal enabled when adaptive_width is set, and
// a trace whose queries share one k (the trace generator's contract).
Result<ServiceReport> ReplayTrace(const Trace& trace, BatchEngine* engine,
                                  const ReplayOptions& options);

}  // namespace gir::serve

#endif  // GIR_SERVE_REPLAY_H_
