#include <algorithm>

#include "workloads.h"

namespace espbench {

uint64_t ReplicaSeed(uint64_t run_seed, uint64_t workload_salt,
                     uint64_t replica) {
  // splitmix64 over the three inputs.
  uint64_t z = run_seed * 0x9E3779B97F4A7C15ULL + workload_salt * 0xBF58476D1CE4E5B9ULL +
               replica * 0x94D049BB133111EBULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void ReportStageMetrics(const trace::AllKinds& totals, int64_t ticks,
                        RunResult& out) {
  const double n = static_cast<double>(std::max<int64_t>(ticks, 1));
  for (int k = 0; k < trace::kNumKinds; ++k) {
    const std::string prefix = std::string("stage.") + trace::KindName(k);
    out.Metric(prefix + ".push_ms", totals[k].push_ns / 1e6 / n, "ms/tick");
    out.Metric(prefix + ".eval_ms", totals[k].eval_ns / 1e6 / n, "ms/tick");
    out.Metric(prefix + ".rows_in", totals[k].rows_in / n, "rows/tick");
    out.Metric(prefix + ".rows_out", totals[k].rows_out / n, "rows/tick");
  }
}

void ReportProcessorMetrics(const trace::TracedEngine& engine,
                            int64_t loop_tick_ns, int64_t serving_ns,
                            RunResult& out) {
  int64_t push_ns = 0;
  int64_t pushes = 0;
  int64_t wall_ns = 0;
  int64_t stage_ns = 0;
  Samples tick_self_ms;
  double skew_sum = 0;
  int64_t skew_n = 0;
  const double ticks = static_cast<double>(engine.ticks().size());
  const double serving_per_tick = ticks > 0 ? serving_ns / ticks : 0;
  for (const trace::TickBreakdown& t : engine.ticks()) {
    push_ns += t.push_ns;
    pushes += t.pushes;
    wall_ns += t.wall_ns;
    stage_ns += t.stage_path_ns;
    tick_self_ms.Add((t.wall_ns - t.stage_path_ns - serving_per_tick) / 1e6);
    if (t.shard_mean_ns > 0) {
      skew_sum += static_cast<double>(t.shard_max_ns) / t.shard_mean_ns;
      ++skew_n;
    }
  }
  out.Metric("processor.push_ns_per_reading",
             pushes > 0 ? static_cast<double>(push_ns) / pushes : 0, "ns");
  out.Metric("processor.tick_self_ms_p50", tick_self_ms.Percentile(0.5),
             "ms");
  out.Metric("sharded.shard_busy_skew", skew_n > 0 ? skew_sum / skew_n : 0,
             "ratio");
  // Self times along the tick's path: engine push + engine tick self +
  // stages on the critical path + serving evaluation. Their sum against the
  // loop-observed wall time is the accounting check.
  const int64_t accounted = push_ns + (wall_ns - stage_ns - serving_ns) +
                            stage_ns + serving_ns;
  out.Detail("accounted_tick_ns", static_cast<double>(accounted));
  out.Detail("loop_tick_ns", static_cast<double>(loop_tick_ns));
  out.Metric("trace.accounted_share",
             loop_tick_ns > 0
                 ? static_cast<double>(accounted) / loop_tick_ns
                 : 0,
             "ratio");
}

}  // namespace espbench
