#include "serve/service_metrics.h"

#include <algorithm>
#include <cmath>

namespace gir::serve {

namespace {

// Same convention as BatchEngine's percentile: nearest-rank over the
// sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

size_t OccupancyBucket(size_t occupancy) {
  size_t b = 0;
  size_t cap = 1;
  while (cap < occupancy) {
    cap <<= 1;
    ++b;
  }
  return b;
}

}  // namespace

void SlidingWindow::Record(double reply_ms, double latency_ms) {
  samples_.emplace_back(reply_ms, latency_ms);
  const double horizon = reply_ms - window_ms_;
  while (!samples_.empty() && samples_.front().first <= horizon) {
    samples_.pop_front();
  }
}

SlidingWindow::Snapshot SlidingWindow::At(double now_ms) const {
  Snapshot snap;
  std::vector<double> lat;
  lat.reserve(samples_.size());
  for (const auto& [reply, latency] : samples_) {
    if (reply > now_ms - window_ms_ && reply <= now_ms) {
      lat.push_back(latency);
    }
  }
  snap.count = lat.size();
  if (lat.empty()) return snap;
  std::sort(lat.begin(), lat.end());
  snap.p50_ms = Percentile(lat, 0.50);
  snap.p95_ms = Percentile(lat, 0.95);
  snap.p99_ms = Percentile(lat, 0.99);
  snap.qps = 1000.0 * static_cast<double>(lat.size()) / window_ms_;
  return snap;
}

void MetricsBuilder::RecordServed(const RequestTiming& t) {
  ++metrics_.requests;
  ++metrics_.served;
  latencies_.push_back(t.Latency());
  if (first_enqueue_ms_ < 0.0 || t.enqueue_ms < first_enqueue_ms_) {
    first_enqueue_ms_ = t.enqueue_ms;
  }
  last_reply_ms_ = std::max(last_reply_ms_, t.reply_ms);
  window_.Record(t.reply_ms, t.Latency());
  const SlidingWindow::Snapshot snap = window_.At(t.reply_ms);
  metrics_.window_p99_peak_ms =
      std::max(metrics_.window_p99_peak_ms, snap.p99_ms);
}

void MetricsBuilder::RecordShed(const RequestTiming& t) {
  ++metrics_.requests;
  ++metrics_.shed;
  if (first_enqueue_ms_ < 0.0 || t.enqueue_ms < first_enqueue_ms_) {
    first_enqueue_ms_ = t.enqueue_ms;
  }
  last_reply_ms_ = std::max(last_reply_ms_, t.reply_ms);
}

void MetricsBuilder::RecordFailed(StatusCode code) {
  ++metrics_.requests;
  ++metrics_.failed;
  if (code == StatusCode::kUnavailable) ++metrics_.unavailable;
}

void MetricsBuilder::RecordFaultRetries(uint64_t retries,
                                        uint64_t successes) {
  metrics_.fault_retries += retries;
  metrics_.retry_successes += successes;
}

void MetricsBuilder::RecordBatch(size_t occupancy, size_t width) {
  if (occupancy == 0) return;
  ++metrics_.batches;
  occupancy_sum_ += occupancy;
  width_sum_ += width;
  const size_t bucket = OccupancyBucket(occupancy);
  if (metrics_.occupancy_histogram.size() <= bucket) {
    metrics_.occupancy_histogram.resize(bucket + 1, 0);
  }
  ++metrics_.occupancy_histogram[bucket];
}

void MetricsBuilder::RecordUpdate() { ++metrics_.update_events; }

ServiceMetrics MetricsBuilder::Finalize() {
  std::vector<double> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  metrics_.p50_ms = Percentile(sorted, 0.50);
  metrics_.p95_ms = Percentile(sorted, 0.95);
  metrics_.p99_ms = Percentile(sorted, 0.99);
  metrics_.max_ms = sorted.empty() ? 0.0 : sorted.back();
  double sum = 0.0;
  for (double v : sorted) sum += v;
  metrics_.mean_ms =
      sorted.empty() ? 0.0 : sum / static_cast<double>(sorted.size());
  metrics_.duration_ms =
      first_enqueue_ms_ < 0.0 ? 0.0 : last_reply_ms_ - first_enqueue_ms_;
  if (metrics_.duration_ms > 0.0) {
    metrics_.achieved_qps = 1000.0 * static_cast<double>(metrics_.served) /
                            metrics_.duration_ms;
    metrics_.offered_qps = 1000.0 * static_cast<double>(metrics_.requests) /
                           metrics_.duration_ms;
  }
  if (metrics_.batches > 0) {
    metrics_.mean_batch_occupancy =
        static_cast<double>(occupancy_sum_) /
        static_cast<double>(metrics_.batches);
    metrics_.mean_width = static_cast<double>(width_sum_) /
                          static_cast<double>(metrics_.batches);
  }
  return metrics_;
}

}  // namespace gir::serve
