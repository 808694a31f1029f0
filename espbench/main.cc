// espbench: one end-to-end benchmark over four ESP deployments.
//
//   espbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out DIR] [--work DIR]
//
// Prints a human-readable report and a details line, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the five end-to-end
// metrics with --trace 0, every per-layer metric with --trace 1. See
// README.md for the workloads, the metrics and the oracles.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "stream/column.h"
#include "stream/simd_kernels.h"
#include "trace.h"
#include "workloads.h"

namespace espbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"readings_per_s", "readings/s"},
      {"latency_p50_ms", "ms"},
      {"cpu_s_per_mreading", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"net.client_send_ms", "ms/tick"},
        {"net.client_ack_wait_ms", "ms/tick"},
        {"net.server_self_ms", "ms/tick"},
        {"net.bytes_per_reading", "bytes"},
        {"net.frames_decoded", "frames/tick"},
        {"recovery.journal_records_per_reading", "records"},
        {"recovery.journal_bytes_per_reading", "bytes"},
        {"recovery.append_self_ms", "ms/tick"},
        {"recovery.checkpoint_ms_p50", "ms"},
        {"recovery.checkpoint_bytes", "bytes"},
        {"processor.push_ns_per_reading", "ns"},
        {"processor.tick_self_ms_p50", "ms"},
        {"processor.buffered_tuples", "tuples"},
        {"processor.late_admitted", "readings"},
    };
    static const char* kKinds[] = {"point", "smooth", "merge", "arbitrate",
                                   "virtualize"};
    static std::vector<std::string> names;
    names.reserve(20);
    for (const char* kind : kKinds) {
      for (const char* what : {"push_ms", "eval_ms", "rows_in", "rows_out"}) {
        names.push_back(std::string("stage.") + kind + "." + what);
      }
    }
    for (size_t i = 0; i < names.size(); ++i) {
      const bool rows = names[i].find(".rows_") != std::string::npos;
      s.push_back({names[i].c_str(), rows ? "rows/tick" : "ms/tick"});
    }
    const std::vector<MetricSpec> tail = {
        {"sharded.shard_busy_skew", "ratio"},
        {"cql.columnar_vector_batches", "batches/tick"},
        {"cql.columnar_guard_fallbacks", "count/tick"},
        {"serving.register_ms_p50", "ms"},
        {"serving.register_ms_max", "ms"},
        {"serving.churn_ms_p50", "ms"},
        {"serving.physical_plans", "plans"},
        {"serving.shared_buffers", "buffers"},
        {"serving.buffered_tuples", "tuples"},
        {"serving.evals_per_result", "ratio"},
        {"serving.eval_ms", "ms/tick"},
        {"cluster.push_ns_per_reading", "ns"},
        {"cluster.tick_wait_ms_p50", "ms"},
        {"cluster.central_stage_ms", "ms/tick"},
        {"cluster.batches_sent", "batches/tick"},
        {"cluster.worker_cpu_s", "s/ktick"},
        {"trace.accounted_share", "ratio"},
        {"trace.readings_per_s_overhead", "%"},
    };
    s.insert(s.end(), tail.begin(), tail.end());
    return s;
  }();
  return specs;
}

void Usage() {
  std::fprintf(stderr,
               "usage: espbench --workload <shelf_fleet|redwood_durable|"
               "home_serving|lab_cluster> --seed <n> --seconds <s> "
               "--trace <0|1> [--out DIR] [--work DIR]\n");
}

bool ParseArgs(int argc, char** argv, RunParams& params) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      params.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      params.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      params.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      params.trace = value == "1";
    } else if (arg == "--out") {
      params.out_dir = value;
    } else if (arg == "--work") {
      params.work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && params.seconds > 0;
}

const char* BuildType() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "release";
#else
  return "debug";
#endif
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

using WorkloadFn = void (*)(const RunParams&, RunResult&);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "shelf_fleet") return &RunShelfFleet;
  if (name == "redwood_durable") return &RunRedwoodDurable;
  if (name == "home_serving") return &RunHomeServing;
  if (name == "lab_cluster") return &RunLabCluster;
  return nullptr;
}

void PrintDetails(const char* label, const RunResult& r) {
  std::string line = std::string("{\"phase\": ") + JsonString(label);
  for (const auto& [key, value] : r.details) {
    line += ", " + JsonString(key) + ": " + value;
  }
  line += "}";
  std::printf("details %s\n", line.c_str());
  for (const std::string& f : r.failures) {
    std::printf("MISMATCH %s\n", f.c_str());
  }
}

int Main(int argc, char** argv) {
  RunParams params;
  if (!ParseArgs(argc, argv, params)) {
    Usage();
    return 2;
  }
  const WorkloadFn run = FindWorkload(params.workload);
  if (run == nullptr) {
    Usage();
    return 2;
  }
  // Numbers from a debug or sanitizer build describe the build, not the
  // program.
  if (std::strcmp(BuildType(), "release") != 0 ||
      std::strcmp(Sanitizer(), "none") != 0) {
    std::fprintf(stderr,
                 "espbench: refusing to report from a %s build with "
                 "sanitizer %s\n",
                 BuildType(), Sanitizer());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(params.out_dir, ec);
  std::filesystem::create_directories(params.work_dir, ec);

  std::printf(
      "espbench workload=%s seed=%llu seconds=%g trace=%d build=%s "
      "sanitizer=%s compiler=%s nproc=%ld avx2=%d columnar=%d\n",
      params.workload.c_str(), static_cast<unsigned long long>(params.seed),
      params.seconds, params.trace ? 1 : 0, BuildType(), Sanitizer(),
      __VERSION__, sysconf(_SC_NPROCESSORS_ONLN),
      esp::stream::simd::Avx2Available() ? 1 : 0,
      esp::stream::ColumnarEnabled() ? 1 : 0);
  std::fflush(stdout);

  RunParams untraced = params;
  untraced.trace = false;
  RunResult plain;
  run(untraced, plain);
  PrintDetails("untraced", plain);

  RunResult* reported = &plain;
  RunResult traced;
  const std::vector<MetricSpec>* specs = &EndToEndMetrics();
  if (params.trace) {
    // The traced run repeats the workload with every layer decorator in
    // place; its overhead is measured against the untraced run above.
    trace::Enable();
    run(params, traced);
    PrintDetails("traced", traced);
    const auto plain_rps = plain.metrics.find("readings_per_s");
    const auto traced_rps = traced.metrics.find("readings_per_s");
    if (plain_rps != plain.metrics.end() &&
        traced_rps != traced.metrics.end() && plain_rps->second.first > 0) {
      traced.Metric("trace.readings_per_s_overhead",
                    100.0 * (1.0 - traced_rps->second.first /
                                       plain_rps->second.first),
                    "%");
    }
    const std::string span_path = params.out_dir + "/" + params.workload +
                                  "-seed" + std::to_string(params.seed) +
                                  "-spans.tsv";
    if (!trace::Spans().Write(span_path)) {
      std::fprintf(stderr, "espbench: cannot write %s\n", span_path.c_str());
    } else {
      std::printf("spans: %zu written to %s\n", trace::Spans().size(),
                  span_path.c_str());
    }
    reported = &traced;
    specs = &PerLayerMetrics();
  }

  const bool correct = plain.correct && (!params.trace || traced.correct);
  std::string metrics;
  for (const MetricSpec& spec : *specs) {
    const auto it = reported->metrics.find(spec.name);
    const double value = it != reported->metrics.end() ? it->second.first : 0;
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + Num(value) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<long long>(reported->attempted),
      static_cast<long long>(reported->failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace espbench

int main(int argc, char** argv) { return espbench::Main(argc, argv); }
