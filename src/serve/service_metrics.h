#ifndef GIR_SERVE_SERVICE_METRICS_H_
#define GIR_SERVE_SERVICE_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"

namespace gir::serve {

// Per-request lifecycle timestamps on the service clock (trace time in
// the replayer; wall time in a live front door). A shed request keeps
// its enqueue stamp and the reject time in reply_ms.
struct RequestTiming {
  double enqueue_ms = 0.0;
  double admit_ms = 0.0;          // batch formation time
  double compute_start_ms = 0.0;  // engine picked the batch up
  double compute_end_ms = 0.0;
  double reply_ms = 0.0;
  bool shed = false;
  double Latency() const { return reply_ms - enqueue_ms; }
};

// Sliding-window latency/throughput tracker: keeps (reply time,
// latency) samples inside the trailing window and answers p50/p95/p99
// and achieved QPS over it. Single-writer (the serving loop); snapshots
// are taken between records.
class SlidingWindow {
 public:
  explicit SlidingWindow(double window_ms = 1000.0)
      : window_ms_(window_ms) {}

  void Record(double reply_ms, double latency_ms);

  struct Snapshot {
    size_t count = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double qps = 0.0;
  };
  // Quantiles over samples with reply time in (now_ms - window, now_ms].
  Snapshot At(double now_ms) const;

  double window_ms() const { return window_ms_; }

 private:
  double window_ms_;
  std::deque<std::pair<double, double>> samples_;  // (reply, latency)
};

// Whole-run service metrics, aggregated by the serving loop. Latency
// percentiles are over served requests end-to-end: enqueue -> admit ->
// compute -> reply.
struct ServiceMetrics {
  size_t requests = 0;       // query arrivals offered
  size_t served = 0;
  size_t shed = 0;           // explicit ResourceExhausted rejections
  size_t failed = 0;         // per-query engine errors
  size_t update_events = 0;  // update batches applied
  size_t batches = 0;        // batches executed
  double duration_ms = 0.0;  // first enqueue to last reply
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
  double achieved_qps = 0.0;  // served / duration
  double offered_qps = 0.0;   // requests / duration
  double mean_batch_occupancy = 0.0;
  double mean_width = 0.0;  // mean chosen shared_group_width per batch
  // Batch-occupancy histogram: bucket b counts batches of size in
  // (2^(b-1), 2^b], bucket 0 counts size-1 batches.
  std::vector<uint64_t> occupancy_histogram;
  // Worst sliding-window p99 observed during the run (the SLA metric a
  // dashboard alarms on; the full-run p99 hides transients).
  double window_p99_peak_ms = 0.0;

  // ----- fault accounting -----
  // Of `failed`, how many were terminal kUnavailable — storage faults
  // that outlived the engine's retry budget. Always explicit rejections
  // delivered to the client, never silent drops.
  size_t unavailable = 0;
  uint64_t fault_retries = 0;    // engine retry attempts, run-wide
  uint64_t retry_successes = 0;  // queries served only thanks to a retry

  double ShedRate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(shed) / static_cast<double>(requests);
  }
  // Fraction of offered requests that got a successful reply; sheds and
  // failures (of any kind) both count against it.
  double Availability() const {
    return requests == 0 ? 1.0
                         : static_cast<double>(served) /
                               static_cast<double>(requests);
  }
};

// Accumulates ServiceMetrics from per-request timings and per-batch
// shapes; Finalize computes the percentile/rate fields.
class MetricsBuilder {
 public:
  explicit MetricsBuilder(double window_ms = 1000.0) : window_(window_ms) {}

  void RecordServed(const RequestTiming& t);
  void RecordShed(const RequestTiming& t);
  void RecordFailed() { RecordFailed(StatusCode::kInternal); }
  // Classified failure: kUnavailable failures are tracked separately as
  // the degradation the fault-injection harness measures.
  void RecordFailed(StatusCode code);
  void RecordBatch(size_t occupancy, size_t width);
  void RecordUpdate();
  // Engine-side retry accounting of one executed batch.
  void RecordFaultRetries(uint64_t retries, uint64_t successes);

  const SlidingWindow& window() const { return window_; }
  ServiceMetrics Finalize();

 private:
  SlidingWindow window_;
  std::vector<double> latencies_;
  ServiceMetrics metrics_;
  double first_enqueue_ms_ = -1.0;
  double last_reply_ms_ = 0.0;
  uint64_t width_sum_ = 0;
  uint64_t occupancy_sum_ = 0;
};

}  // namespace gir::serve

#endif  // GIR_SERVE_SERVICE_METRICS_H_
