#ifndef ESP_BENCH_BENCH_UTIL_H_
#define ESP_BENCH_BENCH_UTIL_H_

// Shared plumbing for benchmark harnesses: every artifact (CSV trace, BENCH_*
// regression JSON) is routed through a --output_dir flag so CI jobs and sweep
// scripts can collect artifacts from one place instead of scraping whatever
// working directory the binary ran in.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "stream/column.h"
#include "stream/simd_kernels.h"

namespace esp::bench {

/// Extracts `--output_dir=DIR` (or `--output_dir DIR`) from argv, compacting
/// the array in place so downstream flag parsers (e.g. google-benchmark)
/// never see it. Returns DIR, defaulting to "." — the historical
/// write-to-cwd behavior.
inline std::string ParseOutputDir(int* argc, char** argv) {
  std::string dir = ".";
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    const std::string arg = argv[r];
    if (arg.rfind("--output_dir=", 0) == 0) {
      dir = arg.substr(13);
      continue;
    }
    if (arg == "--output_dir" && r + 1 < *argc) {
      dir = argv[++r];
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  return dir.empty() ? std::string(".") : dir;
}

/// Joins `dir` and `filename`. A "." directory yields the bare filename so
/// log messages stay as short as before.
inline std::string OutputPath(const std::string& dir,
                              const std::string& filename) {
  if (dir.empty() || dir == ".") return filename;
  if (dir.back() == '/') return dir + filename;
  return dir + "/" + filename;
}

/// Per-tick latency sampler. Benchmarks Record() each tick's wall time and
/// publish tail percentiles next to the mean google-benchmark already
/// reports — regressions that only widen the tail (a slow rebuild path, a
/// rehash) are invisible in means but jump out of p99/p999.
class LatencyRecorder {
 public:
  void Record(double ns) { samples_.push_back(ns); }
  size_t size() const { return samples_.size(); }

  /// True nearest-rank percentile over the recorded samples, q in [0, 1]:
  /// element ceil(q * n) (1-based) of the sorted samples; q = 1 is the max.
  double Percentile(double q) {
    if (samples_.empty()) return 0.0;
    const size_t n = samples_.size();
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
    const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples_.begin(), nth, samples_.end());
    return *nth;
  }

  /// Publishes lat_p50/lat_p99/lat_p999/lat_max (ns) and the sample count
  /// lat_n as benchmark counters, which google-benchmark serializes into the
  /// BENCH_*.json entry. Templated so this header stays usable from
  /// harnesses that do not link google-benchmark.
  template <typename State>
  void Report(State& state) {
    if (samples_.empty()) return;
    state.counters["lat_n"] = static_cast<double>(samples_.size());
    state.counters["lat_p50_ns"] = Percentile(0.50);
    state.counters["lat_p99_ns"] = Percentile(0.99);
    state.counters["lat_p999_ns"] = Percentile(0.999);
    state.counters["lat_max_ns"] = Percentile(1.0);
  }

  /// The same figures as a JSON object fragment, for the hand-rolled
  /// BENCH_*.json writers.
  std::string ToJson() {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"p50_ns\": %.0f, \"p99_ns\": %.0f, \"p999_ns\": %.0f, "
                  "\"max_ns\": %.0f, \"n\": %zu}",
                  Percentile(0.50), Percentile(0.99), Percentile(0.999),
                  Percentile(1.0), samples_.size());
    return buf;
  }

 private:
  std::vector<double> samples_;
};

/// Build/runtime flags that change what a benchmark number means. Sanitizer
/// builds are 2-20x slower, and columnar/AVX2 toggles select entirely
/// different execution paths — a BENCH_*.json without this metadata cannot
/// be compared against a baseline safely.
inline std::vector<std::pair<std::string, std::string>> BuildFlagsMetadata() {
  const char* sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  sanitizer = "asan";
#elif defined(__SANITIZE_THREAD__)
  sanitizer = "tsan";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  sanitizer = "asan";
#elif __has_feature(thread_sanitizer)
  sanitizer = "tsan";
#endif
#endif
#if defined(NDEBUG)
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
#if defined(ESP_ENABLE_AVX2) && ESP_ENABLE_AVX2
  const char* avx2_compiled = "1";
#else
  const char* avx2_compiled = "0";
#endif
  return {
      {"build_type", build_type},
      {"sanitizer", sanitizer},
      {"avx2_compiled", avx2_compiled},
      {"avx2_runtime", stream::simd::Avx2Available() ? "1" : "0"},
      {"simd_force_scalar", stream::simd::ForceScalar() ? "1" : "0"},
      {"columnar_enabled", stream::ColumnarEnabled() ? "1" : "0"},
  };
}

/// BuildFlagsMetadata() as a JSON object string for hand-rolled writers.
inline std::string BuildFlagsJson() {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : BuildFlagsMetadata()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + key + "\": \"" + value + "\"";
  }
  out += "}";
  return out;
}

}  // namespace esp::bench

#endif  // ESP_BENCH_BENCH_UTIL_H_
