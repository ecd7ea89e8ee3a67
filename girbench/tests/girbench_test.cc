// Unit tests of the benchmark's own logic: seeded plans, the metric
// vocabulary against BENCHMARK.json, and the attribution arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "plan.h"
#include "report.h"
#include "spans.h"

namespace girbench {
namespace {

bool SameBits(const gir::Vec& a, const gir::Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectSamePlan(const Plan& a, const Plan& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].due_ms, b.queries[i].due_ms);
    EXPECT_TRUE(SameBits(a.queries[i].weights, b.queries[i].weights));
  }
  const auto same_updates = [](const std::vector<UpdateOp>& x,
                               const std::vector<UpdateOp>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].due_ms, y[i].due_ms);
      EXPECT_EQ(x[i].batch.deletes, y[i].batch.deletes);
      ASSERT_EQ(x[i].batch.inserts.size(), y[i].batch.inserts.size());
      for (size_t j = 0; j < x[i].batch.inserts.size(); ++j) {
        EXPECT_TRUE(SameBits(x[i].batch.inserts[j], y[i].batch.inserts[j]));
      }
    }
  };
  same_updates(a.updates, b.updates);
  same_updates(a.isolated, b.isolated);
}

TEST(Plan, SameSeedSameOperations) {
  for (const WorkloadSpec& spec : Workloads()) {
    SCOPED_TRACE(spec.name);
    gir::Result<Plan> a = BuildPlan(spec, 7, 2.0);
    gir::Result<Plan> b = BuildPlan(spec, 7, 2.0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSamePlan(*a, *b);
  }
}

TEST(Plan, OtherSeedOtherInputs) {
  for (const WorkloadSpec& spec : Workloads()) {
    SCOPED_TRACE(spec.name);
    gir::Result<Plan> a = BuildPlan(spec, 7, 2.0);
    gir::Result<Plan> b = BuildPlan(spec, 8, 2.0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_FALSE(SameBits(a->queries.front().weights, b->queries.front().weights));
  }
}

TEST(Plan, CountsFollowTheSpec) {
  const double seconds = 3.0;
  for (const WorkloadSpec& spec : Workloads()) {
    SCOPED_TRACE(spec.name);
    gir::Result<Plan> plan = BuildPlan(spec, 11, seconds);
    ASSERT_TRUE(plan.ok());
    const double total_s = kWarmupSeconds + seconds;
    if (spec.loop == Loop::kOpen) {
      // Poisson arrivals: within 5 standard deviations of rate x time.
      const double mean = spec.query_qps * total_s;
      EXPECT_NEAR(static_cast<double>(plan->queries.size()), mean,
                  5.0 * std::sqrt(mean));
      for (size_t i = 1; i < plan->queries.size(); ++i) {
        EXPECT_LE(plan->queries[i - 1].due_ms, plan->queries[i].due_ms);
      }
      EXPECT_LT(plan->queries.back().due_ms, total_s * 1000.0);
    } else {
      EXPECT_EQ(plan->queries.size(),
                static_cast<size_t>(kClosedLoopQpsCap * total_s));
    }
    EXPECT_EQ(plan->updates.size(),
              static_cast<size_t>(std::floor(spec.update_bps * total_s)));
    EXPECT_EQ(plan->isolated.size(), spec.isolated_updates);
    for (const UpdateOp& u : plan->updates) {
      EXPECT_EQ(u.batch.inserts.size() + u.batch.deletes.size(),
                spec.update_records);
    }
  }
}

TEST(Plan, FreshWeightsNeverRepeat) {
  const WorkloadSpec* cold = FindWorkload("cold_d5");
  ASSERT_NE(cold, nullptr);
  gir::Result<Plan> plan = BuildPlan(*cold, 3, 1.0);
  ASSERT_TRUE(plan.ok());
  for (size_t i = 1; i < plan->queries.size() && i < 2000; ++i) {
    EXPECT_FALSE(SameBits(plan->queries[i - 1].weights, plan->queries[i].weights));
  }
}

// (name, unit) pairs of one BENCHMARK.json section, in file order.
std::vector<std::pair<std::string, std::string>> SectionMetrics(
    const std::string& json, const std::string& section) {
  const size_t start = json.find("\"" + section + "\"");
  const size_t end = json.find(']', start);
  const std::string body = json.substr(start, end - start);
  const std::regex entry(
      "\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"");
  std::vector<std::pair<std::string, std::string>> out;
  for (std::sregex_iterator it(body.begin(), body.end(), entry), done;
       it != done; ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

void ExpectSameMetrics(const std::vector<MetricDef>& defs,
                       const std::vector<std::pair<std::string, std::string>>&
                           declared) {
  ASSERT_EQ(defs.size(), declared.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    EXPECT_EQ(defs[i].name, declared[i].first);
    EXPECT_EQ(defs[i].unit, declared[i].second);
  }
}

TEST(Metrics, NamesMatchBenchmarkJson) {
  std::ifstream f(GIRBENCH_JSON);
  ASSERT_TRUE(f.good()) << GIRBENCH_JSON;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  ExpectSameMetrics(EndToEndMetrics(), SectionMetrics(json, "end_to_end"));
  ExpectSameMetrics(PerLayerMetrics(), SectionMetrics(json, "per_layer"));
  // Every declared workload exists; cold_d5 and write_mix exist without
  // being declared (README.md says why).
  const size_t start = json.find("\"workloads\"");
  const std::string body = json.substr(start, json.find(']', start) - start);
  const std::regex entry("\"name\":\\s*\"([^\"]+)\",\\s*\"why\"");
  size_t declared = 0;
  for (std::sregex_iterator it(body.begin(), body.end(), entry), done;
       it != done; ++it, ++declared) {
    EXPECT_NE(FindWorkload((*it)[1]), nullptr) << (*it)[1];
  }
  EXPECT_EQ(declared, Workloads().size() - 2);
  EXPECT_EQ(body.find("\"cold_d5\""), std::string::npos);
  EXPECT_EQ(body.find("write_mix"), std::string::npos);
}

TEST(Metrics, ResultLineCarriesEveryMetric) {
  std::vector<MetricValue> values;
  for (const MetricDef& d : EndToEndMetrics()) {
    values.push_back(MetricValue{d.name, d.unit, 1.5});
  }
  const std::string line = ResultLine(true, 10, 0, values);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0", 0),
            0u);
  for (const MetricDef& d : EndToEndMetrics()) {
    EXPECT_NE(line.find(std::string("\"") + d.name + "\": {\"value\": 1.5"),
              std::string::npos)
        << d.name;
  }
}

TEST(Stats, PercentilesAreNearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_EQ(Median(v), 50.5);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Ratio(1.0, 0.0), 0.0);
}

TEST(Stats, SlicedPercentileIgnoresOneStalledSlice) {
  std::vector<std::pair<double, double>> samples;
  for (int t = 0; t < 100; ++t) samples.emplace_back(t, 1.0 + (t % 10));
  samples.emplace_back(5.0, 1000.0);  // one stall, in slice 0
  samples.emplace_back(500.0, 9e9);   // outside the window
  // Five slices of 20: p99 is 10 in every slice but the stalled one.
  EXPECT_EQ(SlicedPercentile(samples, 0.0, 100.0, 5, 0.99), 10.0);
  EXPECT_EQ(Percentile({1000.0, 1.0}, 0.99), 1000.0);
  EXPECT_EQ(SlicedPercentile({}, 0.0, 100.0, 5, 0.99), 0.0);
}

TEST(Attribution, RatioIsLayerSumOverMeasuredLatency) {
  // Request 0: BRS, Phase 1, Phase 2 and the intersection account for
  // its whole 6 ms.
  std::vector<Attribution> requests = {{{0.5, 0.25, 4.75, 0.5}, 6.0}};
  EXPECT_DOUBLE_EQ(AttributionRatio(requests), 1.0);
  // Request 1: 1 ms of its 4 ms went to no timed layer.
  requests.push_back({{1.0, 2.0}, 4.0});
  EXPECT_DOUBLE_EQ(AttributionRatio(requests), 9.0 / 10.0);
  // Request 2: the layers called one by one cost more than the path.
  requests.push_back({{7.0}, 5.0});
  EXPECT_DOUBLE_EQ(AttributionRatio(requests), 16.0 / 15.0);
  // A request without parts only adds to the measured side.
  requests.push_back({{}, 5.0});
  EXPECT_DOUBLE_EQ(AttributionRatio(requests), 16.0 / 20.0);
  EXPECT_EQ(AttributionRatio({}), 0.0);
}

TEST(Spans, DisabledLogRecordsNothing) {
  SpanLog log(false);
  log.Add("Submit", "call", kGeneratorTrack, 0.0, 1.0);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(Spans, ChromeTraceHasOneEventPerCallAndPairsPerPhase) {
  SpanLog log(true);
  log.Add("ComputeBatch", "call", kServerTrack, 1.0, 2.5);
  log.Add("batch", "query", kServerTrack, 1.0, 2.5, 7);
  const std::string json =
      ChromeTraceJson(log.Snapshot(), {{"workload", "hot_d4"}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\":\"hot_d4\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ComputeBatch\",\"cat\":\"call\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":3,\"ts\":1000.000,\"dur\":1500.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\",\"pid\":1,\"tid\":3,\"ts\":1000.000,\"id\":7"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\",\"pid\":1,\"tid\":3,\"ts\":2500.000,\"id\":7"),
            std::string::npos);
}

}  // namespace
}  // namespace girbench
