#ifndef ESPBENCH_COMMON_H_
#define ESPBENCH_COMMON_H_

// Shared plumbing of the end-to-end benchmark: clocks, nearest-rank
// percentiles, process accounting (CPU, peak RSS) and the result record
// each workload fills in.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace espbench {

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

/// CPU time (user + sys) of the calling thread, nanoseconds.
int64_t ThreadCpuNs();

/// CPU time (user + sys) of every thread of this process, nanoseconds.
int64_t ProcessCpuNs();

/// On-CPU time of every thread of process `pid`, from
/// /proc/<pid>/task/*/schedstat (nanosecond resolution). -1 if unreadable.
int64_t PidCpuNs(int64_t pid);

/// Kernel thread id of the caller.
int64_t Gettid();

/// High-water resident set of this process, MiB (getrusage).
double SelfPeakRssMb();

/// High-water resident set of process `pid` (VmHWM), MiB; 0 if unreadable.
double PidPeakRssMb(int64_t pid);

/// Sleeps until the monotonic clock reaches `deadline_ns`.
void SleepUntilNs(int64_t deadline_ns);

/// \brief Samples with true nearest-rank percentiles: the q-quantile of n
/// sorted samples is element ceil(q * n) (1-based).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Percentile(double q) const;
  double Max() const;
  double Mean() const;
  double Sum() const;
  /// Samples strictly above the q-quantile (how many samples support it).
  size_t CountAbove(double q) const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Median of a small vector (nearest rank, lower middle for even n is not
/// used: this is the nearest-rank 0.5 quantile).
double Median(std::vector<double> values);

/// \brief What one workload run reports back to main().
struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  // Oracle mismatches (first few kept).
  int64_t attempted = 0;
  int64_t failed = 0;
  /// name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Free-form run details printed before the result line.
  std::vector<std::pair<std::string, std::string>> details;

  void Metric(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& key, const std::string& value);
  void Detail(const std::string& key, double value);
  /// Records an oracle mismatch; keeps the first 10 messages.
  void Fail(const std::string& message);
};

/// Command-line parameters every workload receives.
struct RunParams {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  /// Working directory for journals and worker storage.
  std::string work_dir = ".bench_work";
};

/// Set-up batches per run and the pause between two of them.
constexpr int kSetupBatches = 8;
constexpr int64_t kSetupGapNs = 200'000'000;

/// Times fresh set-ups of a deployment and returns the median seconds. On
/// a shared machine a build's time moves by a third from one 100 ms stretch
/// to the next, so builds are taken in kSetupBatches batches kSetupGapNs
/// apart. A batch builds once untimed (warm-up), then `repeats` timed
/// times, each after an untimed `teardown` of the previous deployment. The
/// last build stays in place for the run. Dies on a failed build.
double MeasureSetup(int repeats, const std::function<void()>& teardown,
                    const std::function<esp::Status()>& build,
                    const std::string& what, RunResult& out);

/// Splits the measured time of a run between the closed-loop and the
/// open-loop segments.
struct PhaseBudget {
  double closed_s;
  double open_s;
};
PhaseBudget SplitPhases(const RunParams& params);

/// Quotes a string for JSON.
std::string JsonString(const std::string& s);

/// Formats a double with all its significant digits.
std::string Num(double v);

/// Aborts the run with a message (setup failures are not measurements).
[[noreturn]] void Die(const std::string& what, const esp::Status& status);

}  // namespace espbench

#endif  // ESPBENCH_COMMON_H_
