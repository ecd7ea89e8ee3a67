#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace girbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"query_p50_ms", "ms"}, {"served_qps", "1/s"},
      {"slo_met_ratio", "ratio"}, {"ok_ratio", "ratio"}, {"rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      // End-to-end figures reported unbounded: between runs on a shared
      // host the reply p90 spread up to 0.52 and the p99 up to 0.33
      // (quartile distance over median), and the write and recovery
      // figures, bound to fsync and page-fault costs, up to 0.44.
      {"query_p90_ms", "ms"},
      {"query_p99_ms", "ms"},
      {"update_ack_p50_ms", "ms"},
      {"update_ack_p99_ms", "ms"},
      {"restart_ms", "ms"},
      {"serve.admission_wait_ms", "ms"},
      {"serve.dispatch_wait_ms", "ms"},
      {"serve.batch_occupancy", "ratio"},
      {"serve.shed_ratio", "ratio"},
      {"gir.batch_ms", "ms"},
      {"gir.batch_ms_per_query", "ms"},
      {"gir.dedupe_ratio", "ratio"},
      {"gir.read_amortization", "ratio"},
      {"gir.cache_probe_us", "us"},
      {"gir.cache_hit_ratio", "ratio"},
      {"gir.cache_partial_ratio", "ratio"},
      {"topk.brs_ms", "ms"},
      {"topk.reads_per_query", "count"},
      {"gir.phase1_ms", "ms"},
      {"gir.phase2_ms", "ms"},
      {"gir.phase2_reads", "count"},
      {"gir.phase2_candidates", "count"},
      {"gir.phase2_useful_ratio", "ratio"},
      {"geom.intersect_ms", "ms"},
      {"geom.constraints", "count"},
      {"storage.wal_append_ms", "ms"},
      {"storage.wal_fsyncs_per_batch", "count"},
      {"storage.wal_write_amp", "ratio"},
      {"index.mutate_ms", "ms"},
      {"index.refreeze_ms", "ms"},
      {"index.refreeze_bytes", "bytes"},
      {"gir.invalidate_ms", "ms"},
      {"gir.invalidate_lp_tests", "count"},
      {"gir.invalidate_evict_ratio", "ratio"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.arena_open_ms", "ms"},
      {"storage.wal_replay_ms", "ms"},
      {"storage.wal_replayed_batches", "count"},
      {"harness.gen_lag_p99_ms", "ms"},
      {"harness.query_attribution_ratio", "ratio"},
      {"harness.update_attribution_ratio", "ratio"},
      {"harness.trace_overhead_pct", "%"},
  };
  return defs;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double SlicedPercentile(const std::vector<std::pair<double, double>>& samples,
                        double start, double end, size_t slices, double p) {
  if (slices == 0 || !(end > start)) return 0.0;
  std::vector<std::vector<double>> by_slice(slices);
  const double width = (end - start) / static_cast<double>(slices);
  for (const auto& [t, v] : samples) {
    if (t < start || t >= end) continue;
    const auto s = static_cast<size_t>((t - start) / width);
    by_slice[std::min(s, slices - 1)].push_back(v);
  }
  std::vector<double> tails;
  for (std::vector<double>& s : by_slice) {
    if (!s.empty()) tails.push_back(Percentile(std::move(s), p));
  }
  return Median(std::move(tails));
}

double SlicedRate(const std::vector<double>& times, double start, double end,
                  size_t slices) {
  if (slices == 0 || !(end > start)) return 0.0;
  std::vector<double> counts(slices, 0.0);
  const double width = (end - start) / static_cast<double>(slices);
  for (double t : times) {
    if (t < start || t >= end) continue;
    counts[std::min(static_cast<size_t>((t - start) / width), slices - 1)] += 1;
  }
  for (double& c : counts) c /= width / 1000.0;
  return Median(std::move(counts));
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double AttributionRatio(const std::vector<Attribution>& requests) {
  double parts = 0.0, measured = 0.0;
  for (const Attribution& r : requests) {
    for (double ms : r.parts_ms) parts += ms;
    measured += r.measured_ms;
  }
  return Ratio(parts, measured);
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<MetricValue>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

const MetricDef* FindMetric(const std::vector<MetricDef>& defs,
                            const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

}  // namespace girbench
