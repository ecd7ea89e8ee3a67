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
  // Shed a request at dispatch when the server cannot even *start* its
  // batch before the deadline. Off = deadline accounting only (the
  // determinism tests replay shed-free).
  bool shed_on_dispatch = true;
  double window_ms = 1000.0;  // sliding-window metric width
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
// clock: arrivals happen at their trace timestamps, batch formation
// follows the admission policy (max_wait / max_batch / barriers at
// update events), and each batch's *measured* compute wall time
// advances a single-server busy clock — so queueing delay, batch
// latency and shedding emerge from real engine speed at the configured
// arrival rate, even on one core. Per-request results are bit-identical
// to direct ComputeGir calls in arrival order with the same update
// barriers (grouping, batching and width never change results — the
// shared-traversal contract), which is what the determinism test pins.
//
// Every query event gets exactly one outcome: served, explicitly shed
// (ResourceExhausted), or failed — never silently dropped. Requires an
// engine with shared_traversal enabled when adaptive_width is set, and
// a trace whose queries share one k (the trace generator's contract).
Result<ServiceReport> ReplayTrace(const Trace& trace, BatchEngine* engine,
                                  const ReplayOptions& options);

}  // namespace gir::serve

#endif  // GIR_SERVE_REPLAY_H_
