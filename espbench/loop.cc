#include "loop.h"

#include <algorithm>

namespace espbench {

namespace {

int64_t WorkersCpuNs(const Deployment& d) {
  int64_t total = 0;
  for (int64_t pid : d.WorkerPids()) {
    const int64_t ns = PidCpuNs(pid);
    if (ns > 0) total += ns;
  }
  return total;
}

/// Pushes one tick's readings and ticks; returns whether the tick ran.
bool DriveTick(Deployment& d, int64_t tick, std::vector<Reading>& readings,
               esp::StatusOr<esp::core::TickResult>& result, RunResult& out) {
  d.BeforeTick(tick, out.attempted, out.failed);
  for (Reading& r : readings) {
    ++out.attempted;
    if (!d.Push(*r.first, std::move(r.second)).ok()) ++out.failed;
  }
  ++out.attempted;
  result = d.Tick(d.TickTime(tick));
  if (!result.ok()) {
    ++out.failed;
    out.Fail("tick " + std::to_string(tick) + ": " +
             result.status().ToString());
    return false;
  }
  return true;
}

/// One closed-loop segment of `ticks` ticks.
void ClosedSegment(Deployment& d, int64_t ticks, int64_t& tick,
                   LoopStats& stats, RunResult& out) {
  ClosedLoopStats& closed = stats.closed;
  std::vector<Reading> readings;
  esp::StatusOr<esp::core::TickResult> result =
      esp::Status::Internal("not run");
  int64_t busy = 0, excluded_cpu = 0;
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t workers0 = WorkersCpuNs(d);
  for (int64_t i = 0; i < ticks; ++i, ++tick) {
    int64_t c0 = ThreadCpuNs();
    readings.clear();
    d.Generate(tick, readings);
    excluded_cpu += ThreadCpuNs() - c0;

    const int64_t start = NowNs();
    const bool ok = DriveTick(d, tick, readings, result, out);
    busy += NowNs() - start;
    closed.readings += static_cast<int64_t>(readings.size());

    c0 = ThreadCpuNs();
    if (ok) d.Check(tick, *result, out);
    excluded_cpu += ThreadCpuNs() - c0;
  }
  closed.program_cpu_s +=
      (ProcessCpuNs() - cpu0 - excluded_cpu + (WorkersCpuNs(d) - workers0)) /
      1e9;
  closed.busy_s += busy / 1e9;
  closed.ticks += ticks;
  stats.ticks += ticks;
  stats.loop_tick_ns += busy;
}

/// One open-loop segment of `ticks` ticks at `rate_hz`.
void OpenSegment(Deployment& d, int64_t ticks, double rate_hz, int64_t& tick,
                 LoopStats& stats, RunResult& out) {
  OpenLoopStats& open = stats.open;
  std::vector<Reading> readings;
  esp::StatusOr<esp::core::TickResult> result =
      esp::Status::Internal("not run");
  const int64_t period = static_cast<int64_t>(1e9 / rate_hz);
  const int64_t origin = NowNs() + period;
  for (int64_t i = 0; i < ticks; ++i, ++tick) {
    const int64_t due = origin + i * period;
    // The tick's readings are created during its period; its last one at
    // the due time.
    readings.clear();
    d.Generate(tick, readings);
    SleepUntilNs(due);
    const int64_t start = NowNs();
    const bool ok = DriveTick(d, tick, readings, result, out);
    const int64_t done = NowNs();
    stats.loop_tick_ns += done - start;
    open.latency_ms.Add(static_cast<double>(done - due) / 1e6);
    open.generator_late_ms.Add(static_cast<double>(start - due) / 1e6);
    open.readings += static_cast<int64_t>(readings.size());
    ++open.ticks;
    ++stats.ticks;
    if (ok) d.Check(tick, *result, out);
  }
}

}  // namespace

int64_t ClosedSegmentTicks(const RunParams& params, double closed_ticks_per_s) {
  return std::max<int64_t>(
      1, static_cast<int64_t>(closed_ticks_per_s *
                                  SplitPhases(params).closed_s / kRounds +
                              0.5));
}

LoopStats RunRounds(Deployment& d, const RunParams& params,
                    double closed_ticks_per_s, double rate_hz,
                    RunResult& out) {
  LoopStats stats;
  stats.open.rate_hz = rate_hz;
  const PhaseBudget budget = SplitPhases(params);
  const int64_t open_ticks = static_cast<int64_t>(budget.open_s * rate_hz);
  const int64_t closed_ticks = ClosedSegmentTicks(params, closed_ticks_per_s);
  int64_t tick = 0;
  for (int r = 0; r < kRounds; ++r) {
    ClosedSegment(d, closed_ticks, tick, stats, out);
    // Whole segments: every run attempts the same open-loop ticks.
    const int64_t segment = open_ticks * (r + 1) / kRounds -
                            open_ticks * r / kRounds;
    OpenSegment(d, segment, rate_hz, tick, stats, out);
  }
  return stats;
}

void ReportEndToEnd(const LoopStats& stats, double setup_s,
                    double peak_rss_mb, RunResult& out) {
  const ClosedLoopStats& closed = stats.closed;
  const OpenLoopStats& open = stats.open;
  out.Metric("setup_s", setup_s, "s");
  out.Metric("readings_per_s",
             closed.busy_s > 0 ? closed.readings / closed.busy_s : 0,
             "readings/s");
  out.Metric("cpu_s_per_mreading",
             closed.readings > 0 ? closed.program_cpu_s / closed.readings * 1e6
                                 : 0,
             "s");
  out.Metric("peak_rss_mb", peak_rss_mb, "MiB");

  out.Detail("closed_ticks", static_cast<double>(closed.ticks));
  out.Detail("closed_readings", static_cast<double>(closed.readings));
  out.Detail("closed_busy_s", closed.busy_s);
  out.Detail("open_ticks", static_cast<double>(open.ticks));
  ReportLatency(open, out);
}

void ReportLatency(const OpenLoopStats& open, RunResult& out) {
  const Samples& latency_ms = open.latency_ms;
  const Samples& late_ms = open.generator_late_ms;
  out.Metric("latency_p50_ms", latency_ms.Percentile(0.50), "ms");
  out.Detail("open_rate_hz", open.rate_hz);
  out.Detail("latency_n", static_cast<double>(latency_ms.size()));
  out.Detail("latency_p90_ms", latency_ms.Percentile(0.90));
  out.Detail("latency_p99_ms", latency_ms.Percentile(0.99));
  out.Detail("latency_p999_ms", latency_ms.Percentile(0.999));
  out.Detail("latency_max_ms", latency_ms.Max());
  out.Detail("latency_samples_above_p99",
             static_cast<double>(latency_ms.CountAbove(0.99)));
  out.Detail("generator_late_p99_ms", late_ms.Percentile(0.99));
  out.Detail("generator_late_max_ms", late_ms.Max());
}

}  // namespace espbench
