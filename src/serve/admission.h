#ifndef GIR_SERVE_ADMISSION_H_
#define GIR_SERVE_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "geom/vec.h"

namespace gir::serve {

struct AdmissionOptions {
  // Formation is work-conserving: whenever the dispatcher is free and a
  // request is queued, a batch fires at once with everything queued, up
  // to max_batch (FIFO). Nothing lingers to fill a batch; batches grow
  // only from requests that arrived while the previous batch ran.
  size_t max_batch = 128;
  // Unread. Kept only because girbench still assigns it; slated for
  // removal.
  double max_wait_ms = 5.0;
  // Per-request SLA budget from enqueue to reply; Submit stamps every
  // request's absolute deadline with it. Shedding is explicit: a
  // request that provably cannot reply in time is rejected with
  // ResourceExhausted, never silently dropped.
  double deadline_ms = 100.0;
  // Submit sheds beyond this backlog (the queue is the only buffer in
  // front of the engine; unbounded growth just converts overload into
  // unbounded latency).
  size_t queue_capacity = 4096;
  // ----- adaptive shared-traversal group width -----
  // Requests whose unit-normalized weight vectors have cosine
  // similarity >= cluster_cos against a cluster's leader join that
  // cluster (greedy leader clustering, deterministic in arrival
  // order).
  double cluster_cos = 0.995;
  // Chosen width = largest cluster size, clamped to max_width (the
  // score-matrix memory bound). Singleton clusters (stragglers) are
  // ordered last and, when the whole batch is stragglers, the chosen
  // width degenerates to 1 — per-query traversal, i.e. the fan-out
  // fallback.
  size_t max_width = 128;
};

// One request as the admission queue carries it. `id` is the caller's
// correlation key (the replayer uses the query's trace position);
// deadline_ms is absolute trace/wall time.
struct ServiceRequest {
  uint64_t id = 0;
  Vec weights;
  size_t k = 0;
  double enqueue_ms = 0.0;
  double deadline_ms = 0.0;
};

// A request the former refused, with the explicit reason.
struct ShedRequest {
  ServiceRequest request;
  Status status;
};

// One admission decision: the requests to execute (reordered
// cluster-major: clusters by descending size, stragglers last), the
// traversal grouping and width to hand BatchEngine, and whatever was
// shed at formation time.
struct FormedBatch {
  std::vector<ServiceRequest> requests;
  // group_of[i] labels requests[i]'s cluster; contiguous runs by
  // construction — pass through to ExecPolicy::group_of.
  std::vector<uint32_t> group_of;
  size_t width = 0;       // adaptive ExecPolicy::group_width this batch
  size_t clusters = 0;    // clusters of size >= 2
  size_t stragglers = 0;  // singleton-cluster requests (fan-out tail)
  double formed_ms = 0.0;
};

// Clusters weight vectors by cosine similarity (greedy leader pass in
// input order) and emits the cluster-major execution order plus the
// adaptive width. Exposed for tests and for callers that batch
// externally.
FormedBatch ClusterForExecution(std::vector<ServiceRequest> requests,
                                const AdmissionOptions& options,
                                double now_ms);

// Thread-safe admission queue + batch former in front of a BatchEngine.
// Producers Submit requests; the serving loop, whenever it is free to
// dispatch, polls ShouldForm / NextFireTime and calls Form. All
// shedding is explicit: Submit rejects on backlog overflow, Form sheds
// requests whose deadline already passed; both return
// ResourceExhausted statuses the caller must deliver to the client.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionOptions& options)
      : options_(options) {}

  // Enqueues, stamping enqueue time and absolute deadline. Fails with
  // ResourceExhausted when the backlog is at capacity and with
  // InvalidArgument on empty weights.
  Status Submit(uint64_t id, Vec weights, size_t k, double now_ms);

  // Earliest time a free dispatcher should form a batch: the oldest
  // request's enqueue time (work-conserving: it was ripe on arrival).
  // Negative when the queue is empty. Only meaningful when the caller
  // is free to dispatch; a busy server fires at max(this, free time).
  double NextFireTime() const;

  // True as soon as any request is queued: a free dispatcher takes the
  // queue at once. `now_ms` does not change the answer.
  bool ShouldForm(double now_ms) const;

  // Drains up to max_batch requests (FIFO), sheds the ones whose
  // deadline already passed at `now_ms` into *shed, clusters the rest
  // for execution. Returns an empty batch when the queue is empty.
  FormedBatch Form(double now_ms, std::vector<ShedRequest>* shed);

  size_t size() const;
  const AdmissionOptions& options() const { return options_; }

  // Stops admission: atomically marks the queue shut down and drains
  // every pending request, returned with kUnavailable for the caller
  // to deliver — a shut-down front door rejects explicitly, it does
  // not strand work. Every later Submit fails with kUnavailable
  // immediately (no race window where a request slips in behind the
  // drain); Form keeps returning empty batches. Idempotent.
  std::vector<ShedRequest> Shutdown();
  bool shut_down() const;

 private:
  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::deque<ServiceRequest> queue_;
  bool shut_down_ = false;  // guarded by mu_
};

}  // namespace gir::serve

#endif  // GIR_SERVE_ADMISSION_H_
