#include <map>
#include <string>

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace esp::bench {
namespace {

/// Stands in for benchmark::State: Report() only writes `counters`.
struct CounterSink {
  std::map<std::string, double> counters;
};

TEST(LatencyRecorderTest, TrueNearestRankWithCountAndMax) {
  LatencyRecorder recorder;
  for (int i = 100; i >= 1; --i) recorder.Record(i);  // Unsorted on purpose.
  EXPECT_EQ(recorder.Percentile(0.0), 1);
  EXPECT_EQ(recorder.Percentile(1.0), 100);

  CounterSink state;
  recorder.Report(state);
  EXPECT_EQ(state.counters["lat_n"], 100);
  EXPECT_EQ(state.counters["lat_p50_ns"], 50);
  EXPECT_EQ(state.counters["lat_p99_ns"], 99);
  EXPECT_EQ(state.counters["lat_p999_ns"], 100);
  EXPECT_EQ(state.counters["lat_max_ns"], 100);
  EXPECT_EQ(recorder.ToJson(),
            "{\"p50_ns\": 50, \"p99_ns\": 99, \"p999_ns\": 100, "
            "\"max_ns\": 100, \"n\": 100}");
}

}  // namespace
}  // namespace esp::bench
