#include "common.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <dirent.h>
#include <fstream>
#include <numeric>
#include <sstream>

namespace espbench {

namespace {

int64_t ClockNs(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int64_t ReadSchedstatNs(const std::string& path) {
  std::ifstream in(path);
  long long on_cpu = -1;
  if (!(in >> on_cpu)) return -1;
  return on_cpu;
}

}  // namespace

int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t PidCpuNs(int64_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return -1;
  int64_t total = 0;
  bool any = false;
  while (dirent* entry = readdir(d)) {
    if (entry->d_name[0] == '.') continue;
    const int64_t ns =
        ReadSchedstatNs(dir + "/" + entry->d_name + "/schedstat");
    if (ns >= 0) {
      total += ns;
      any = true;
    }
  }
  closedir(d);
  return any ? total : -1;
}

int64_t Gettid() { return static_cast<int64_t>(syscall(SYS_gettid)); }

double SelfPeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

double PidPeakRssMb(int64_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

void SleepUntilNs(int64_t deadline_ns) {
  timespec ts;
  ts.tv_sec = deadline_ns / 1000000000LL;
  ts.tv_nsec = deadline_ns % 1000000000LL;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

double Samples::Max() const {
  return values_.empty() ? 0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

size_t Samples::CountAbove(double q) const {
  const double cut = Percentile(q);
  return static_cast<size_t>(std::count_if(
      values_.begin(), values_.end(), [cut](double v) { return v > cut; }));
}

double Median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Percentile(0.5);
}

void RunResult::Metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics[name] = {value, unit};
}

void RunResult::Detail(const std::string& key, const std::string& value) {
  details.emplace_back(key, JsonString(value));
}

void RunResult::Detail(const std::string& key, double value) {
  details.emplace_back(key, Num(value));
}

void RunResult::Fail(const std::string& message) {
  correct = false;
  if (failures.size() < 10) failures.push_back(message);
}

double MeasureSetup(int repeats, const std::function<void()>& teardown,
                    const std::function<esp::Status()>& build,
                    const std::string& what, RunResult& out) {
  std::vector<double> samples;
  for (int batch = 0; batch < kSetupBatches; ++batch) {
    if (batch > 0) SleepUntilNs(NowNs() + kSetupGapNs);
    for (int i = 0; i <= repeats; ++i) {
      teardown();
      const int64_t start = NowNs();
      const esp::Status status = build();
      const double seconds = static_cast<double>(NowNs() - start) / 1e9;
      if (!status.ok()) Die(what + " setup", status);
      if (i > 0) samples.push_back(seconds);
    }
  }
  std::string list;
  for (double s : samples) {
    if (!list.empty()) list += ' ';
    list += Num(s);
  }
  out.Detail("setup_samples_s", list);
  return Median(samples);
}

PhaseBudget SplitPhases(const RunParams& params) {
  // The open-loop phase gets the larger share: its p99 needs samples.
  return {params.seconds * 0.25, params.seconds * 0.75};
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Die(const std::string& what, const esp::Status& status) {
  std::fprintf(stderr, "espbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace espbench
