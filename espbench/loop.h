#ifndef ESPBENCH_LOOP_H_
#define ESPBENCH_LOOP_H_

// The measurement loops shared by the workloads whose engine is driven
// in-process (shelf_fleet, home_serving, lab_cluster). A run alternates
// kRounds closed-loop segments (ticks pushed back to back) with open-loop
// segments at a fixed offered tick rate, so both kinds of figure sample the
// whole run rather than one stretch of it. Input generation and oracle
// checks run between the timed spans and are excluded from wall and CPU
// figures.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/engine.h"

namespace espbench {

/// Closed/open alternations per run.
constexpr int kRounds = 6;

/// One generated reading: its device type and tuple.
using Reading = std::pair<const std::string*, esp::stream::Tuple>;

/// \brief What a workload's deployment provides to the loops.
class Deployment {
 public:
  virtual ~Deployment() = default;

  /// Generates tick `tick`'s readings (the generator, not the program).
  virtual void Generate(int64_t tick, std::vector<Reading>& out) = 0;
  virtual esp::Timestamp TickTime(int64_t tick) const = 0;

  /// Program work done before a tick's readings are pushed (e.g.
  /// subscription churn). Counts its operations into attempted/failed.
  virtual void BeforeTick(int64_t tick, int64_t& attempted, int64_t& failed) {
    (void)tick;
    (void)attempted;
    (void)failed;
  }
  virtual esp::Status Push(const std::string& type, esp::stream::Tuple t) = 0;
  virtual esp::StatusOr<esp::core::TickResult> Tick(esp::Timestamp now) = 0;

  /// The oracle: checks one tick's outputs against an independent
  /// computation from the generator's own record of the tick's readings
  /// (the tuples themselves were moved into the program).
  virtual void Check(int64_t tick, const esp::core::TickResult& result,
                     RunResult& out) = 0;

  /// Worker processes whose CPU counts as the program's (cluster).
  virtual std::vector<int64_t> WorkerPids() const { return {}; }
};

/// \brief Figures of a run's closed-loop segments, summed over segments.
struct ClosedLoopStats {
  int64_t ticks = 0;
  int64_t readings = 0;
  double busy_s = 0;         // Summed first-push -> result wall time.
  double program_cpu_s = 0;  // Program CPU (generator and oracle excluded).
};

/// \brief Figures of a run's open-loop segments.
struct OpenLoopStats {
  int64_t ticks = 0;
  int64_t readings = 0;
  double rate_hz = 0;
  Samples latency_ms;         // Due time -> result in hand.
  Samples generator_late_ms;  // How late each tick's first push started.
};

/// \brief Everything the loops measured.
struct LoopStats {
  ClosedLoopStats closed;
  OpenLoopStats open;
  int64_t ticks = 0;
  /// Loop-observed tick wall time (first push -> result), summed over
  /// every tick; the traced run's accounting reference.
  int64_t loop_tick_ns = 0;
};

/// Runs kRounds of (closed segment, open segment). The work is fixed by
/// --seconds, not by the clock, so every run covers the same ticks of the
/// trace and attempts the same operations: closed segments of
/// closed_ticks_per_s x 0.25 x seconds / kRounds ticks (closed_ticks_per_s
/// is the workload's nominal closed-loop speed, so a segment takes about
/// that long), open segments totalling 0.75 x seconds x rate_hz ticks.
LoopStats RunRounds(Deployment& d, const RunParams& params,
                    double closed_ticks_per_s, double rate_hz,
                    RunResult& out);

/// Ticks per closed-loop segment for a nominal closed-loop speed.
int64_t ClosedSegmentTicks(const RunParams& params, double closed_ticks_per_s);

/// Reports the end-to-end metrics from the loops' figures.
void ReportEndToEnd(const LoopStats& stats, double setup_s,
                    double peak_rss_mb, RunResult& out);

/// Reports latency_p50_ms over all open-loop samples and, as details, n,
/// p90, p99, p99.9, max and how late the generator ran.
void ReportLatency(const OpenLoopStats& open, RunResult& out);

}  // namespace espbench

#endif  // ESPBENCH_LOOP_H_
