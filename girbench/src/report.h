#ifndef GIRBENCH_REPORT_H_
#define GIRBENCH_REPORT_H_

// Metric vocabulary of the benchmark and the arithmetic that turns run
// records into it. The names and units here are the ones BENCHMARK.json
// declares (girbench_test checks that they agree).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace girbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Untraced run (--trace 0), in BENCHMARK.json order.
const std::vector<MetricDef>& EndToEndMetrics();
// Traced run (--trace 1), in BENCHMARK.json order.
const std::vector<MetricDef>& PerLayerMetrics();

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 when
// empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// A tail percentile robust to a one-off stall: splits [start, end) into
// `slices` equal time slices, takes the p-th percentile of the values
// whose time falls in each non-empty slice, and returns the median of
// those. `samples` are (time, value) pairs; 0 when none is in range.
double SlicedPercentile(const std::vector<std::pair<double, double>>& samples,
                        double start, double end, size_t slices, double p);
// Events per second (`times` in ms), as the median over the same slices.
double SlicedRate(const std::vector<double>& times, double start, double end,
                  size_t slices);
double Mean(const std::vector<double>& samples);
// num / den, or 0 when den is 0.
double Ratio(double num, double den);

// One request's layer self-times, each timed around its own call, and
// the same request's latency taken by a separate end-to-end timer.
struct Attribution {
  std::vector<double> parts_ms;
  double measured_ms = 0.0;
};

// Sum of every request's parts over the sum of their measured
// latencies. 1.0 means the timed layers account for the whole latency;
// below 1.0 time went to something no layer timer covers, above it the
// layers cost more called one by one than along the measured path. 0
// when nothing was measured.
double AttributionRatio(const std::vector<Attribution>& requests);

// The last stdout line of a run: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<MetricValue>& metrics);

// Looks a definition up by name in `defs`; null when absent.
const MetricDef* FindMetric(const std::vector<MetricDef>& defs,
                            const std::string& name);

}  // namespace girbench

#endif  // GIRBENCH_REPORT_H_
