// lab_cluster: Section 5.1 Intel-lab rooms (IntelLabWorld: 3 motes per
// room, one failing dirty) replicated over R rooms, on a ClusterCoordinator
// with 2 forked workers (fsync off). Workers run the Merge
// outlier-rejecting average (Query 5) per room; the coordinator runs a
// building-level Virtualize (room count and mean room temperature)
// centrally. Rooms start at staggered points of their trace, so some
// rooms' failing mote is healthy, some ramping, some past 100 C.
//
// Oracle: each room's outlier-rejecting average recomputed from the
// generated readings over the same 5 min window, the building
// aggregate recomputed from the room rows, and a room whose failing mote
// reads above 100 C must report within 5 C of its working motes.

#include <sys/prctl.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "cluster/coordinator.h"
#include "cluster/supervisor.h"
#include "core/stage.h"
#include "core/toolkit.h"
#include "loop.h"
#include "oracle.h"
#include "sim/intel_lab_world.h"
#include "sim/reading.h"
#include "workloads.h"

namespace espbench {
namespace {

using esp::Duration;
using esp::Status;
using esp::StatusOr;
using esp::Timestamp;
using esp::core::StageKind;
using esp::core::TickResult;
using esp::stream::Tuple;
using esp::stream::Value;

constexpr int kRooms = 32;
constexpr int kMotes = 3;
constexpr size_t kWorkers = 2;
constexpr int64_t kEpochMicros = 31000000;  // Intel Lab epoch.
constexpr int kWindowEpochs = 10;           // 5 min window / 31 s epochs.
constexpr double kOpenRateHz = 10;
// Nominal closed-loop speed: sizes the closed-loop segments (fixed work).
constexpr double kClosedTicksPerS = 22;
constexpr int kSetupRepeats = 3;
const std::string kMoteType = "mote";

struct Room {
  std::vector<std::array<float, kMotes>> values;  // NaN = not delivered.
  std::array<Value, kMotes> motes;
  int64_t offset = 0;  // Trace index of the room at tick 0.
};

/// One window entry of the oracle, in the merge stage's insertion order.
struct Entry {
  int64_t tick;
  int mote;
  double value;
};

/// Worker supervision that also remembers the live worker pids.
class TrackingSupervisor : public esp::cluster::WorkerSupervisor {
 public:
  StatusOr<esp::cluster::WorkerEndpoint> Spawn(
      const esp::cluster::WorkerSpawnSpec& spec) override {
    // The engine factory runs inside the forked worker: tie the worker's
    // life to the benchmark's, so no worker outlives an aborted run.
    esp::cluster::WorkerSpawnSpec tied = spec;
    const pid_t parent = getpid();
    tied.factory = [factory = spec.factory, parent]() {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      return factory();
    };
    ESP_ASSIGN_OR_RETURN(esp::cluster::WorkerEndpoint endpoint,
                         inner_.Spawn(tied));
    pids_.push_back(endpoint.pid);
    return endpoint;
  }
  Status Kill(int64_t pid) override {
    pids_.erase(std::remove(pids_.begin(), pids_.end(), pid), pids_.end());
    return inner_.Kill(pid);
  }
  const std::vector<int64_t>& pids() const { return pids_; }

 private:
  esp::cluster::ForkWorkerSupervisor inner_;
  std::vector<int64_t> pids_;
};

class LabCluster : public Deployment {
 public:
  LabCluster(uint64_t seed, std::string storage)
      : storage_(std::move(storage)) {
    for (int r = 0; r < kRooms; ++r) {
      esp::sim::IntelLabWorld::Config config;
      config.seed = ReplicaSeed(seed, 4, r);
      esp::sim::IntelLabWorld world(config);
      Room room;
      for (int m = 0; m < kMotes; ++m) {
        room.motes[m] = Value::Interned(
            "room" + std::to_string(r) + "_" +
            esp::sim::IntelLabWorld::MoteId(m));
      }
      for (const auto& tick : world.Generate()) {
        std::array<float, kMotes> v;
        v.fill(std::nanf(""));
        for (const auto& reading : tick.readings) {
          for (int m = 0; m < kMotes; ++m) {
            if (reading.mote_id == esp::sim::IntelLabWorld::MoteId(m)) {
              v[m] = static_cast<float>(reading.value);
            }
          }
        }
        room.values.push_back(v);
      }
      trace_ticks_ = static_cast<int64_t>(room.values.size());
      room.offset = trace_ticks_ * r / kRooms;
      failing_mote_ = config.failing_mote;
      granule_room_["room_" + std::to_string(r)] = r;
      rooms_.push_back(std::move(room));
    }
    windows_.resize(kRooms);
  }

  ~LabCluster() override { Teardown(); }

  /// Spawns a fresh cluster (the timed set-up).
  Status Build() {
    esp::cluster::ClusterOptions options;
    options.num_workers = kWorkers;
    options.storage_root = storage_;
    options.fsync = false;
    auto coordinator = std::make_unique<esp::cluster::ClusterCoordinator>(options);
    for (int r = 0; r < kRooms; ++r) {
      std::vector<std::string> members;
      for (const Value& m : rooms_[r].motes) members.push_back(m.string_value());
      ESP_RETURN_IF_ERROR(coordinator->AddProximityGroup(
          {"pg_room" + std::to_string(r), kMoteType,
           esp::core::SpatialGranule{"room_" + std::to_string(r)}, members}));
    }
    esp::core::DeviceTypePipeline motes;
    motes.device_type = kMoteType;
    motes.reading_schema = esp::sim::TempReadingSchema();
    motes.receptor_id_column = "mote_id";
    motes.merge = trace::WrapFactory(esp::core::MergeOutlierRejectingAverage(
        esp::core::TemporalGranule(Duration::Minutes(5)), "temp"));
    motes.virtualize_input = "lab_input";
    ESP_RETURN_IF_ERROR(coordinator->AddPipeline(std::move(motes)));
    ESP_ASSIGN_OR_RETURN(
        std::unique_ptr<esp::core::CqlStage> building,
        esp::core::CqlStage::Create(
            StageKind::kVirtualize, "virtualize_building",
            "SELECT count(*) AS rooms, avg(temp) AS building_temp FROM "
            "lab_input [Range By 'NOW']"));
    coordinator->SetVirtualize(trace::WrapStage(std::move(building)));
    supervisor_ = std::make_unique<TrackingSupervisor>();
    ESP_RETURN_IF_ERROR(coordinator->Start(supervisor_.get()));
    coordinator_ = std::move(coordinator);
    return Status::OK();
  }

  /// Stops the workers and removes their storage.
  void Teardown() {
    if (coordinator_ != nullptr) {
      (void)coordinator_->Stop();
      coordinator_.reset();
    }
    supervisor_.reset();
    std::error_code ec;
    std::filesystem::remove_all(storage_, ec);
  }

  void Generate(int64_t tick, std::vector<Reading>& out) override {
    const Timestamp t = TickTime(tick);
    for (const Room& room : rooms_) {
      const auto& v = room.values[(tick + room.offset) % trace_ticks_];
      for (int m = 0; m < kMotes; ++m) {
        if (std::isnan(v[m])) continue;
        out.emplace_back(&kMoteType,
                         Tuple(esp::sim::TempReadingSchema(),
                               {room.motes[m], Value::Double(v[m])}, t));
      }
    }
  }

  Timestamp TickTime(int64_t tick) const override {
    return Timestamp::Micros((tick + 1) * kEpochMicros);
  }

  Status Push(const std::string& type, Tuple t) override {
    if (!tracing_) return coordinator_->Push(type, std::move(t));
    const int64_t start = NowNs();
    Status status = coordinator_->Push(type, std::move(t));
    push_ns_ += NowNs() - start;
    ++pushes_;
    return status;
  }

  StatusOr<TickResult> Tick(Timestamp now) override {
    if (!tracing_) return coordinator_->Tick(now);
    const int64_t start = NowNs();
    StatusOr<TickResult> result = coordinator_->Tick(now);
    const int64_t wall = NowNs() - start;
    const trace::AllKinds totals = trace::Totals(true);
    int64_t central = 0;
    for (const trace::KindTotals& k : totals) central += k.push_ns + k.eval_ns;
    const int64_t delta = central - last_central_ns_;
    last_central_ns_ = central;
    tick_wait_ms_.Add((wall - delta) / 1e6);
    central_ns_ += delta;
    return result;
  }

  void Check(int64_t tick, const TickResult& result, RunResult& out) override {
    // Slide every room's window: readings with timestamps in
    // (t - 5 min, t], i.e. this tick and the previous kWindowEpochs - 1.
    for (int r = 0; r < kRooms; ++r) {
      std::deque<Entry>& w = windows_[r];
      const auto& v = rooms_[r].values[(tick + rooms_[r].offset) % trace_ticks_];
      for (int m = 0; m < kMotes; ++m) {
        if (!std::isnan(v[m])) w.push_back({tick, m, static_cast<double>(static_cast<float>(v[m]))});
      }
      while (!w.empty() && w.front().tick <= tick - kWindowEpochs) w.pop_front();
    }
    if (result.per_type.size() != 1) {
      out.Fail("lab: expected one output type");
      return;
    }
    std::vector<double> got(kRooms, std::nan(""));
    std::vector<int> rows(kRooms, 0);
    double building_sum = 0;
    int64_t building_rows = 0;
    for (const Tuple& row : result.per_type[0].second.tuples()) {
      const auto it = granule_room_.find(row.value(0).string_value());
      if (it == granule_room_.end()) {
        out.Fail("lab: unknown granule " + row.ToString());
        return;
      }
      ++rows[it->second];
      got[it->second] = row.value(1).is_null() ? std::nan("") : row.value(1).double_value();
      if (!row.value(1).is_null()) {
        building_sum += row.value(1).double_value();
        ++building_rows;
      }
    }
    for (int r = 0; r < kRooms; ++r) {
      const std::deque<Entry>& w = windows_[r];
      if (w.empty()) {
        if (rows[r] != 0) out.Fail("lab: room " + std::to_string(r) + " reported from an empty window");
        continue;
      }
      std::vector<double> values;
      double working_sum = 0;
      int64_t working = 0;
      for (const Entry& e : w) {
        values.push_back(e.value);
        if (e.mote != failing_mote_) {
          working_sum += e.value;
          ++working;
        }
      }
      if (rows[r] > 1 || !OutlierRejectingAverageMatches(values, got[r])) {
        out.Fail("lab: tick " + std::to_string(tick) + " room " +
                 std::to_string(r) + " reported " + std::to_string(got[r]));
      }
      // The fail-dirty mote, once past 100 C, must not drag the room —
      // given a full window: over one or two readings, mean +- stdev
      // cannot single out an outlier.
      const auto& now_v = rooms_[r].values[(tick + rooms_[r].offset) % trace_ticks_];
      if (tick >= kWindowEpochs - 1 && !std::isnan(now_v[failing_mote_]) &&
          now_v[failing_mote_] > 100 && working > 0 && rows[r] == 1) {
        ++failing_checks_;
        if (std::abs(got[r] - working_sum / working) > 5) {
          out.Fail("lab: room " + std::to_string(r) +
                   " still follows its failed mote at tick " +
                   std::to_string(tick));
        }
      }
    }
    // The building Virtualize over the room rows.
    if (!result.virtualized.has_value() || result.virtualized->size() != 1) {
      out.Fail("lab: building aggregate missing");
      return;
    }
    const Tuple& b = result.virtualized->tuple(0);
    const double expected_avg = building_rows > 0 ? building_sum / building_rows : std::nan("");
    const bool building_ok =
        b.value(0).int64_value() == static_cast<int64_t>(result.per_type[0].second.size()) &&
        (building_rows == 0 ? b.value(1).is_null()
                            : !b.value(1).is_null() &&
                                  std::abs(b.value(1).double_value() - expected_avg) <=
                                      1e-9 * std::max(1.0, std::abs(expected_avg)));
    if (!building_ok) {
      out.Fail("lab: building aggregate " + b.ToString() + " at tick " +
               std::to_string(tick));
    }
  }

  std::vector<int64_t> WorkerPids() const override {
    return supervisor_ != nullptr ? supervisor_->pids() : std::vector<int64_t>{};
  }

  void StartTracing() {
    tracing_ = true;
    const trace::AllKinds totals = trace::Totals(true);
    last_central_ns_ = 0;
    for (const trace::KindTotals& k : totals) last_central_ns_ += k.push_ns + k.eval_ns;
  }
  void StopTracing() { tracing_ = false; }

  int64_t failing_checks() const { return failing_checks_; }
  esp::cluster::ClusterCoordinator* coordinator() { return coordinator_.get(); }
  const Samples& tick_wait_ms() const { return tick_wait_ms_; }
  int64_t push_ns() const { return push_ns_; }
  int64_t pushes() const { return pushes_; }
  int64_t central_ns() const { return central_ns_; }

 private:
  std::string storage_;
  std::vector<Room> rooms_;
  int64_t trace_ticks_ = 0;
  int failing_mote_ = 2;
  std::unordered_map<std::string, int> granule_room_;
  std::vector<std::deque<Entry>> windows_;
  int64_t failing_checks_ = 0;
  std::unique_ptr<TrackingSupervisor> supervisor_;
  std::unique_ptr<esp::cluster::ClusterCoordinator> coordinator_;
  bool tracing_ = false;
  int64_t push_ns_ = 0;
  int64_t pushes_ = 0;
  int64_t last_central_ns_ = 0;
  int64_t central_ns_ = 0;
  Samples tick_wait_ms_;
};

}  // namespace

void RunLabCluster(const RunParams& params, RunResult& out) {
  const std::string storage =
      params.work_dir + "/lab_cluster_" + std::to_string(getpid());
  LabCluster lab(params.seed, storage);
  const double setup_s = MeasureSetup(
      kSetupRepeats, [&] { lab.Teardown(); },
      [&] { return lab.Build(); }, "lab_cluster", out);
  if (params.trace) lab.StartTracing();
  const int64_t batches0 = lab.coordinator()->stats().batches_sent;
  const auto workers_cpu_ns = [&] {
    int64_t ns = 0;
    for (int64_t pid : lab.WorkerPids()) ns += std::max<int64_t>(0, PidCpuNs(pid));
    return ns;
  };
  const int64_t worker_cpu0 = workers_cpu_ns();
  const LoopStats stats = RunRounds(lab, params, kClosedTicksPerS, kOpenRateHz, out);
  if (params.trace) {
    lab.StopTracing();
    const double ticks = static_cast<double>(std::max<int64_t>(stats.ticks, 1));
    out.Metric("cluster.push_ns_per_reading",
               lab.pushes() > 0 ? static_cast<double>(lab.push_ns()) / lab.pushes() : 0,
               "ns");
    out.Metric("cluster.tick_wait_ms_p50", lab.tick_wait_ms().Percentile(0.5), "ms");
    out.Metric("cluster.central_stage_ms", lab.central_ns() / 1e6 / ticks, "ms/tick");
    out.Metric("cluster.batches_sent",
               (lab.coordinator()->stats().batches_sent - batches0) / ticks,
               "batches/tick");
    out.Metric("cluster.worker_cpu_s",
               (workers_cpu_ns() - worker_cpu0) / 1e9 / ticks * 1000, "s/ktick");
    // Stage counters: workers' Merge (other processes) + central stages.
    trace::AllKinds totals = trace::Totals(true);
    const trace::AllKinds workers = trace::Totals(false);
    for (int k = 0; k < trace::kNumKinds; ++k) {
      totals[k].push_ns += workers[k].push_ns;
      totals[k].eval_ns += workers[k].eval_ns;
      totals[k].rows_in += workers[k].rows_in;
      totals[k].rows_out += workers[k].rows_out;
      totals[k].evals += workers[k].evals;
    }
    ReportStageMetrics(totals, stats.ticks, out);
    // Tick path on the coordinator: push + tick wait + central stages.
    const double accounted = lab.push_ns() + lab.tick_wait_ms().Sum() * 1e6 +
                             static_cast<double>(lab.central_ns());
    out.Metric("trace.accounted_share", accounted / stats.loop_tick_ns, "ratio");
  }

  double peak = SelfPeakRssMb();
  for (int64_t pid : lab.WorkerPids()) peak += PidPeakRssMb(pid);
  out.Detail("rooms", kRooms);
  out.Detail("workers", static_cast<double>(kWorkers));
  out.Detail("failing_mote_checks", static_cast<double>(lab.failing_checks()));
  if (lab.failing_checks() == 0) {
    out.Fail("lab: no tick exercised a failed mote past 100 C");
  }
  lab.Teardown();
  ReportEndToEnd(stats, setup_s, peak, out);
}

}  // namespace espbench
