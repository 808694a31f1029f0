// Distributed-cluster chaos harness: worker failover equivalence.
//
// A ClusterCoordinator spreads eight proximity groups over four forked
// worker processes and replays a deterministic workload, one tick per
// simulated second. At scripted ticks the harness SIGKILLs live workers
// behind the coordinator's back (no cleanup runs — the kernel releases
// the storage lock, exactly like a real crash). The coordinator must
// detect each death, fence the dead epoch, respawn the slot from its
// checkpoint + journal suffix, and resume the tick — and every tick's
// output is fingerprinted and compared BITWISE against an uninterrupted
// single-process EspProcessor over the same inputs.
//
// Emits BENCH_cluster.json with failover counts, recovery-time percentiles
// and the median wall time of coordinator.Tick; exits non-zero on any
// divergence or an undetected kill.

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/supervisor.h"
#include "common/binio.h"
#include "common/status.h"
#include "core/processor.h"
#include "core/toolkit.h"
#include "sim/reading.h"
#include "stream/serialize.h"

#include "bench/bench_util.h"

namespace esp::bench {
namespace {

using core::EspProcessor;
using stream::Tuple;

constexpr int kTicks = 150;
constexpr size_t kWorkers = 4;
constexpr int kGroups = 8;
constexpr uint64_t kCheckpointEveryTicks = 10;

/// tick -> worker slot to SIGKILL right before that tick runs. Four kills
/// across the run, spread so every slot dies at least once mid-stream and
/// one death lands right after a checkpoint boundary.
const std::map<int, uint32_t>& KillSchedule() {
  static const std::map<int, uint32_t> schedule = {
      {31, 0}, {62, 1}, {90, 2}, {121, 3}};
  return schedule;
}

core::DeviceTypePipeline RfidPipeline() {
  core::DeviceTypePipeline pipeline;
  pipeline.device_type = "rfid";
  pipeline.reading_schema = sim::RfidReadingSchema();
  pipeline.receptor_id_column = "reader_id";
  pipeline.smooth = core::SmoothPresenceCount(
      core::TemporalGranule(Duration::Seconds(5)), "tag_id");
  pipeline.arbitrate = core::ArbitrateMaxCount("tag_id", "reads");
  return pipeline;
}

std::vector<core::ProximityGroup> Groups() {
  std::vector<core::ProximityGroup> groups;
  for (int g = 0; g < kGroups; ++g) {
    groups.push_back({"pg_shelf" + std::to_string(g), "rfid",
                      core::SpatialGranule{"shelf_" + std::to_string(g)},
                      {"reader_" + std::to_string(g)}});
  }
  return groups;
}

StatusOr<std::unique_ptr<EspProcessor>> BuildGoldenProcessor() {
  auto processor = std::make_unique<EspProcessor>();
  for (const core::ProximityGroup& group : Groups()) {
    ESP_RETURN_IF_ERROR(processor->AddProximityGroup(group));
  }
  ESP_RETURN_IF_ERROR(processor->AddPipeline(RfidPipeline()));
  ESP_RETURN_IF_ERROR(processor->Start());
  return processor;
}

std::string Fingerprint(const core::TickResult& result) {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(result.per_type.size()));
  for (const auto& [type, relation] : result.per_type) {
    w.WriteString(type);
    w.WriteU32(static_cast<uint32_t>(relation.size()));
    for (const Tuple& tuple : relation.tuples()) stream::WriteTuple(w, tuple);
  }
  w.WriteBool(result.virtualized.has_value());
  if (result.virtualized.has_value()) {
    w.WriteU32(static_cast<uint32_t>(result.virtualized->size()));
    for (const Tuple& tuple : result.virtualized->tuples()) {
      stream::WriteTuple(w, tuple);
    }
  }
  return std::move(w).Release();
}

Tuple Rfid(int reader, const std::string& tag, double t) {
  return sim::ToTuple(sim::RfidReading{"reader_" + std::to_string(reader),
                                       tag, Timestamp::Seconds(t)});
}

struct Step {
  std::vector<Tuple> pushes;
  Timestamp tick;
};

/// Deterministic workload touching all eight groups: each reader tracks
/// its own resident tag, one migrant tag walks the shelves, and a few
/// readers drop out periodically so group outputs differ across ticks.
std::vector<Step> ClusterScript() {
  std::vector<Step> steps;
  for (int t = 0; t < kTicks; ++t) {
    Step step;
    for (int r = 0; r < kGroups; ++r) {
      if ((t + r) % 7 == 0) continue;  // This reader misses this tick.
      step.pushes.push_back(Rfid(r, "res_" + std::to_string(r), t));
      if ((t + r) % 3 == 0) {
        step.pushes.push_back(Rfid(r, "res_" + std::to_string(r), t));
      }
    }
    step.pushes.push_back(Rfid(t % kGroups, "migrant", t));
    if (t % 2 == 0) step.pushes.push_back(Rfid((t + 3) % kGroups, "migrant", t));
    step.tick = Timestamp::Seconds(t);
    steps.push_back(std::move(step));
  }
  return steps;
}

size_t TotalReadings(const std::vector<Step>& steps) {
  size_t n = 0;
  for (const Step& step : steps) n += step.pushes.size();
  return n;
}

std::vector<std::string> GoldenRun(const std::vector<Step>& steps,
                                   Status* status) {
  std::vector<std::string> fingerprints;
  auto processor = BuildGoldenProcessor();
  if (!processor.ok()) {
    *status = processor.status();
    return fingerprints;
  }
  for (const Step& step : steps) {
    for (const Tuple& tuple : step.pushes) {
      Status pushed = (*processor)->Push("rfid", tuple);
      if (!pushed.ok()) {
        *status = pushed;
        return fingerprints;
      }
    }
    auto result = (*processor)->Tick(step.tick);
    if (!result.ok()) {
      *status = result.status();
      return fingerprints;
    }
    fingerprints.push_back(Fingerprint(*result));
  }
  *status = Status::OK();
  return fingerprints;
}

struct ClusterRunResult {
  bool bitwise_identical = false;
  int kills_delivered = 0;
  cluster::ClusterStats stats;
  /// Wall time of each coordinator.Tick, failover ticks included.
  LatencyRecorder tick_ms;
  std::string failure;
};

Status RunCluster(const std::vector<Step>& steps,
                  const std::vector<std::string>& golden,
                  const std::string& storage_root, ClusterRunResult* out) {
  cluster::ClusterOptions options;
  options.num_workers = kWorkers;
  options.storage_root = storage_root;
  // SIGKILL chaos: fsync off, matching the single-node crash benches — the
  // process dies but the OS survives, so the page cache is durable enough.
  options.fsync = false;
  options.checkpoint_interval_ticks = kCheckpointEveryTicks;

  cluster::ForkWorkerSupervisor supervisor;
  cluster::ClusterCoordinator coordinator(options);
  for (const core::ProximityGroup& group : Groups()) {
    ESP_RETURN_IF_ERROR(coordinator.AddProximityGroup(group));
  }
  ESP_RETURN_IF_ERROR(coordinator.AddPipeline(RfidPipeline()));
  ESP_RETURN_IF_ERROR(coordinator.Start(&supervisor));

  std::vector<std::string> fingerprints;
  for (int t = 0; t < static_cast<int>(steps.size()); ++t) {
    const auto kill = KillSchedule().find(t);
    if (kill != KillSchedule().end()) {
      const int64_t pid = coordinator.worker_pid(kill->second);
      if (pid > 0 && ::kill(static_cast<pid_t>(pid), SIGKILL) == 0) {
        ++out->kills_delivered;
      }
    }
    for (const Tuple& tuple : steps[t].pushes) {
      ESP_RETURN_IF_ERROR(coordinator.Push("rfid", tuple));
    }
    const auto start = std::chrono::steady_clock::now();
    ESP_ASSIGN_OR_RETURN(const core::TickResult result,
                         coordinator.Tick(steps[t].tick));
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - start;
    out->tick_ms.Record(took.count());
    fingerprints.push_back(Fingerprint(result));
  }
  ESP_RETURN_IF_ERROR(coordinator.Stop());

  out->stats = coordinator.stats();
  out->bitwise_identical = fingerprints == golden;
  if (!out->bitwise_identical) {
    size_t first = 0;
    while (first < fingerprints.size() && first < golden.size() &&
           fingerprints[first] == golden[first]) {
      ++first;
    }
    out->failure = "tick fingerprints diverged at tick " +
                   std::to_string(first) + " (" +
                   std::to_string(fingerprints.size()) + " ticks vs " +
                   std::to_string(golden.size()) + " golden)";
  }
  return Status::OK();
}

int Run(const std::string& out_dir) {
  const std::vector<Step> steps = ClusterScript();
  Status golden_status = Status::OK();
  const std::vector<std::string> golden = GoldenRun(steps, &golden_status);
  if (!golden_status.ok()) {
    std::printf("golden run failed: %s\n", golden_status.ToString().c_str());
    return 1;
  }

  const std::string storage_root =
      (std::filesystem::temp_directory_path() / "esp_chaos_cluster").string();
  std::error_code ec;
  std::filesystem::remove_all(storage_root, ec);

  ClusterRunResult run;
  const Status status = RunCluster(steps, golden, storage_root, &run);
  std::filesystem::remove_all(storage_root, ec);
  if (!status.ok()) {
    std::printf("cluster run failed: %s\n", status.ToString().c_str());
    return 1;
  }

  LatencyRecorder recovery;
  for (const double ms : run.stats.recovery_ms) recovery.Record(ms);
  const double recovery_p50 = recovery.Percentile(0.50);
  const double recovery_p99 = recovery.Percentile(0.99);
  const double tick_p50 = run.tick_ms.Percentile(0.50);

  std::printf(
      "cluster: %d ticks over %zu workers, %zu readings routed via %lld "
      "batches\n",
      kTicks, kWorkers, TotalReadings(steps),
      static_cast<long long>(run.stats.batches_sent));
  std::printf(
      "chaos: %d SIGKILLs delivered, %lld deaths detected, %lld workers "
      "spawned, %lld fenced frames, %lld duplicate results\n",
      run.kills_delivered, static_cast<long long>(run.stats.worker_deaths),
      static_cast<long long>(run.stats.workers_spawned),
      static_cast<long long>(run.stats.fenced_frames),
      static_cast<long long>(run.stats.duplicate_results));
  std::printf("recovery: %zu failovers, p50=%.1fms p99=%.1fms\n",
              run.stats.recovery_ms.size(), recovery_p50, recovery_p99);
  std::printf("tick: p50=%.2fms over %zu ticks\n", tick_p50,
              run.tick_ms.size());
  std::printf("bitwise_identical=%s\n",
              run.bitwise_identical ? "true" : "false");
  if (!run.failure.empty()) {
    std::printf("failure: %s\n", run.failure.c_str());
  }

  const bool kills_ok =
      run.kills_delivered >= 3 &&
      run.stats.worker_deaths >= run.kills_delivered &&
      run.stats.recovery_ms.size() >=
          static_cast<size_t>(run.kills_delivered);
  const bool ok = run.bitwise_identical && kills_ok;

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"cluster\", \"build\": %s, \"workers\": %zu, "
      "\"ticks\": %d, \"readings\": %zu, \"kills_delivered\": %d, "
      "\"worker_deaths\": %lld, \"workers_spawned\": %lld, "
      "\"fenced_frames\": %lld, \"duplicate_results\": %lld, "
      "\"heartbeats\": %lld, \"recovery_ms_p50\": %.2f, "
      "\"recovery_ms_p99\": %.2f, \"tick_ms_p50\": %.3f, "
      "\"bitwise_identical\": %s}\n",
      BuildFlagsJson().c_str(), kWorkers, kTicks, TotalReadings(steps),
      run.kills_delivered, static_cast<long long>(run.stats.worker_deaths),
      static_cast<long long>(run.stats.workers_spawned),
      static_cast<long long>(run.stats.fenced_frames),
      static_cast<long long>(run.stats.duplicate_results),
      static_cast<long long>(run.stats.heartbeats_received), recovery_p50,
      recovery_p99, tick_p50, ok ? "true" : "false");
  std::printf("%s", json);
  const std::string out_path = OutputPath(out_dir, "BENCH_cluster.json");
  if (FILE* f = fopen(out_path.c_str(), "w"); f != nullptr) {
    std::fputs(json, f);
    fclose(f);
  }

  if (!kills_ok) {
    std::printf("FAIL: kills=%d deaths=%lld samples=%zu — a kill went "
                "undetected\n",
                run.kills_delivered,
                static_cast<long long>(run.stats.worker_deaths),
                run.stats.recovery_ms.size());
  }
  if (!run.bitwise_identical) {
    std::printf("FAIL: cluster output diverged from the golden run\n");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace esp::bench

int main(int argc, char** argv) {
  return esp::bench::Run(esp::bench::ParseOutputDir(&argc, argv));
}
