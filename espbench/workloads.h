#ifndef ESPBENCH_WORKLOADS_H_
#define ESPBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "trace.h"

namespace espbench {

void RunShelfFleet(const RunParams& params, RunResult& out);
void RunRedwoodDurable(const RunParams& params, RunResult& out);
void RunHomeServing(const RunParams& params, RunResult& out);
void RunLabCluster(const RunParams& params, RunResult& out);

/// Deterministic per-replica seed derived from the run seed.
uint64_t ReplicaSeed(uint64_t run_seed, uint64_t workload_salt,
                     uint64_t replica);

/// Per-tick stage metrics (stage.<kind>.push_ms / eval_ms per tick,
/// rows_in / rows_out per tick) from the traced stage counters.
void ReportStageMetrics(const trace::AllKinds& totals, int64_t ticks,
                        RunResult& out);

/// processor.* metrics and the tick-path accounting from a TracedEngine.
/// `serving_ns` (query-serving evaluation, if any) is subtracted from the
/// tick self time. `loop_tick_ns` is the tick wall the measurement loop
/// observed (push + tick), summed over ticks.
void ReportProcessorMetrics(const trace::TracedEngine& engine,
                            int64_t loop_tick_ns, int64_t serving_ns,
                            RunResult& out);

}  // namespace espbench

#endif  // ESPBENCH_WORKLOADS_H_
