#ifndef GIR_GIR_EXEC_POLICY_H_
#define GIR_GIR_EXEC_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace gir {

// How one batch executes: the single knob set shared by every layer
// that runs queries — BatchEngine::ComputeBatch accepts one per call,
// BatchOptions::exec holds the engine-level default, and the serve
// replay/admission stack builds its per-batch policy from the engine
// default plus the admission former's output. A default-constructed
// policy is the documented baseline: independent fan-out per query and
// two retries on transient faults.
//
// Every field is per-call; none reconfigures the engine. Results are
// policy-independent — grouping, widths and retries change wall time
// and physical I/O, never which records come back (see the
// shared-traversal contract).
struct ExecPolicy {
  // Shared-traversal execution: cache-missing queries are deduplicated,
  // grouped, and run through RunBrsMulti — one physical walk of the
  // frozen tree per group, multi-weight SIMD scoring per visited node —
  // instead of one independent BRS per query. Per-query results
  // (top-k, scores, region constraints, charged IoStats) are
  // bit-identical to the fan-out path; only the physical read count
  // and wall time change. OFF by default until a deployment opts in.
  bool shared_traversal = false;

  // Maximum queries per shared-traversal group: bounds the score-matrix
  // working set (group_width * node capacity doubles) and the per-group
  // heap pool.
  size_t group_width = 64;

  // Caller-chosen shared-traversal grouping: group_of[i] is the group
  // label of query i (any uint32 — equal labels traverse together).
  // Must be empty or exactly weights.size() long. A group boundary
  // falls wherever the label changes along input order, so labels
  // should form contiguous runs (the admission former emits batches
  // cluster-major, so this is free; a non-contiguous label just
  // traverses as several groups). Groups are still capped at
  // group_width. Empty = chunk representatives by width.
  std::vector<uint32_t> group_of;

  // Nonzero: per-item latency budget in ms, measured like
  // BatchItem::latency_ms (batch start to item reply). Two effects:
  // items over budget are counted in BatchStats::deadline_misses
  // (never dropped or truncated — admission-time shedding is the serve
  // layer's job), and a fault retry whose backoff would cross the
  // budget is skipped in favor of an explicit terminal status.
  double deadline_ms = 0.0;

  // ----- transient-fault handling -----
  // Per-query retry budget after a kUnavailable from the storage layer
  // (an injected — or real — transient page-read failure). Each retry
  // first backs off retry_backoff_ms * 2^attempt of real time; a retry
  // whose backoff would cross deadline_ms is skipped and the query
  // degrades to its terminal status instead — an explicit kUnavailable
  // item, never a silent drop. 0 disables retries.
  size_t max_retries = 2;
  double retry_backoff_ms = 0.25;

  // ----- replicated-serving hints -----
  // These two fields ride the policy down through the serve router
  // (src/serve/router.h); a single-engine BatchEngine enforces the pin
  // and ignores the hedge delay (there is no peer to hedge to).

  // Hedged requests: if the primary replica has not replied within this
  // many ms, the router dispatches the same query to a healthy peer and
  // takes the first reply (both attempts are charged in metrics). 0 =
  // derive the delay from the router's trailing p99 of reply latencies.
  double hedge_delay_ms = 0.0;

  // Epoch pin: the reply must reflect a dataset epoch >= this version
  // (no time-travel after an acknowledged update). The router only
  // routes — and only fails over — to replicas at or ahead of the pin;
  // a single engine behind the pin answers kUnavailable. 0 = unpinned.
  uint64_t pin_epoch = 0;
};

// API-boundary validation, shared by BatchEngine::ComputeBatch and the
// serve router: kInvalidArgument names the offending field, kOk means
// every numeric knob is representable and in-domain. Notably rejects
// non-finite or negative time budgets (a NaN deadline silently disables
// deadline accounting — worse than failing fast), a zero group_width
// under shared traversal (an empty group can make no progress), and a
// max_retries so large it can only be a negative value cast to size_t.
Status ValidateExecPolicy(const ExecPolicy& policy);

// Retry budgets beyond this are rejected as nonsensical: the practical
// way to exceed it is size_t(-1) from a careless signed conversion.
constexpr size_t kMaxRetriesCap = 1000;

}  // namespace gir

#endif  // GIR_GIR_EXEC_POLICY_H_
