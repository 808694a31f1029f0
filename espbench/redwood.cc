// redwood_durable: the Section 5.2 redwood motes (RedwoodWorld, ~40% epoch
// yield, 2-mote proximity groups) replicated over T trees. CQL Smooth
// windowed average (30 min) + Merge outlier-rejecting average. Readings
// travel from one IngestClient over loopback to IngestServer ->
// RecoverySink -> RecoveryCoordinator (journal on, fsync off, checkpoint
// every 50 ticks) -> EspProcessor. A tenth of each epoch's readings is
// sent one tick late, inside the 5 min lateness horizon.
//
// Oracle: smoothed and outlier-rejecting averages recomputed from the
// generated readings for every tick; readings applied equal readings
// sent; and after the run a RecoveryCoordinator::Resume of the run's
// directory reproduces the live engine's last ticks and then ticks in
// lockstep with it.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/processor.h"
#include "core/recovery.h"
#include "core/toolkit.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "loop.h"
#include "oracle.h"
#include "sim/reading.h"
#include "sim/redwood_world.h"
#include "workloads.h"

namespace espbench {
namespace {

using esp::Duration;
using esp::Status;
using esp::StatusOr;
using esp::Timestamp;
using esp::core::TickResult;
using esp::stream::Tuple;
using esp::stream::Value;

constexpr int kTrees = 4;
constexpr int kMotesPerTree = 32;
constexpr int kMotes = kTrees * kMotesPerTree;
constexpr int kGroups = kMotes / 2;
constexpr int64_t kEpochMicros = 300000000;  // 5 min.
constexpr int kSmoothEpochs = 6;             // 30 min window.
constexpr int kLateEvery = 10;               // One reading in ten is late.
constexpr uint64_t kCheckpointTicks = 50;
constexpr double kOpenRateHz = 80;
// Nominal closed-loop speed: sizes the closed-loop segments (fixed work).
constexpr double kClosedTicksPerS = 350;
constexpr int64_t kMaxTicksInFlight = 4;  // Closed-loop client lead.
constexpr int kSetupRepeats = 5;
constexpr int kLockstepTicks = 3;
const std::string kMoteType = "mote";

/// One tick's merged output as the application receives it.
/// A tick's output rows: (granule, temp), a NULL temp read as NaN.
using Rows = std::vector<std::pair<Value, double>>;

struct Output {
  int64_t tick = 0;
  int64_t received_ns = 0;
  Rows rows;
};

Rows RowsOf(const TickResult& result) {
  Rows rows;
  if (result.per_type.empty()) return rows;
  const auto& rel = result.per_type[0].second;
  rows.reserve(rel.size());
  for (const Tuple& row : rel.tuples()) {
    rows.emplace_back(row.value(0), row.value(1).is_null()
                                        ? std::nan("")
                                        : row.value(1).double_value());
  }
  return rows;
}

/// Bit-for-bit equality of two ticks' rows: Value::Equals on the granule,
/// == on the temp (NaN matches NaN).
bool SameRows(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const double x = a[i].second, y = b[i].second;
    if (!a[i].first.Equals(b[i].first) ||
        !(x == y || (std::isnan(x) && std::isnan(y)))) {
      return false;
    }
  }
  return true;
}

/// Per-tick generator record of what was sent: (mote, value) pairs.
struct Sent {
  std::vector<std::pair<int, double>> on_time;
  std::vector<std::pair<int, double>> late;  // Sent after this tick.
};

class RedwoodDurable {
 public:
  RedwoodDurable(const RunParams& params, std::string dir)
      : params_(params), dir_(std::move(dir)) {
    for (int tree = 0; tree < kTrees; ++tree) {
      esp::sim::RedwoodWorld::Config config;
      config.seed = ReplicaSeed(params.seed, 2, tree);
      esp::sim::RedwoodWorld world(config);
      std::vector<std::vector<std::pair<int, float>>> ticks;
      for (const auto& tick : world.Generate()) {
        std::vector<std::pair<int, float>> delivered;
        for (const auto& r : tick.delivered) {
          const int local = std::stoi(r.mote_id.substr(r.mote_id.rfind('_') + 1));
          delivered.emplace_back(tree * kMotesPerTree + local,
                                 static_cast<float>(r.value));
        }
        ticks.push_back(std::move(delivered));
      }
      if (trace_ticks_ == 0) {
        trace_ticks_ = static_cast<int64_t>(ticks.size());
        trace_.resize(ticks.size());
      }
      for (size_t i = 0; i < ticks.size() && i < trace_.size(); ++i) {
        trace_[i].insert(trace_[i].end(), ticks[i].begin(), ticks[i].end());
      }
    }
    for (int m = 0; m < kMotes; ++m) {
      mote_values_.push_back(Value::Interned(MoteId(m)));
    }
    for (int g = 0; g < kGroups; ++g) {
      granule_group_[esp::stream::Value::Interned(GranuleId(g)).string_value()] = g;
    }
    mote_windows_.resize(kMotes);
  }

  static std::string MoteId(int m) {
    return "tree" + std::to_string(m / kMotesPerTree) + "_" +
           esp::sim::RedwoodWorld::MoteId(m % kMotesPerTree);
  }
  static std::string GranuleId(int g) {
    return "tree" + std::to_string(g * 2 / kMotesPerTree) + "_" +
           esp::sim::RedwoodWorld::GroupId(g % (kMotesPerTree / 2));
  }

  /// A freshly configured, started engine over the deployment.
  static StatusOr<std::unique_ptr<esp::core::EspProcessor>> MakeEngine() {
    auto engine = std::make_unique<esp::core::EspProcessor>();
    for (int g = 0; g < kGroups; ++g) {
      ESP_RETURN_IF_ERROR(engine->AddProximityGroup(
          {"pg_" + GranuleId(g), kMoteType, esp::core::SpatialGranule{GranuleId(g)},
           {MoteId(2 * g), MoteId(2 * g + 1)}}));
    }
    esp::core::DeviceTypePipeline motes;
    motes.device_type = kMoteType;
    motes.reading_schema = esp::sim::TempReadingSchema();
    motes.receptor_id_column = "mote_id";
    motes.smooth = trace::WrapFactory(esp::core::SmoothWindowedAverage(
        esp::core::TemporalGranule(Duration::Minutes(30)), "mote_id", "temp"));
    motes.merge = trace::WrapFactory(esp::core::MergeOutlierRejectingAverage(
        esp::core::TemporalGranule(Duration::Minutes(5)), "temp"));
    ESP_RETURN_IF_ERROR(engine->AddPipeline(std::move(motes)));
    esp::core::HealthPolicy policy;
    policy.lateness_horizon = Duration::Micros(kEpochMicros);
    ESP_RETURN_IF_ERROR(engine->SetHealthPolicy(policy));
    ESP_RETURN_IF_ERROR(engine->Start());
    return engine;
  }

  esp::core::RecoveryOptions RecoveryOptions() const {
    esp::core::RecoveryOptions options;
    options.directory = dir_;
    options.checkpoint_interval_ticks = kCheckpointTicks;
    options.fsync = false;
    return options;
  }

  /// Brings the whole path up: engine, journal session, ingest server,
  /// connected client (the timed set-up).
  Status Build() {
    ESP_ASSIGN_OR_RETURN(engine_, MakeEngine());
    esp::core::StreamEngine* engine = engine_.get();
    if (trace::Enabled()) {
      traced_engine_ = std::make_unique<trace::TracedEngine>(engine_.get());
      engine = traced_engine_.get();
    }
    ESP_ASSIGN_OR_RETURN(recovery_,
                         esp::core::RecoveryCoordinator::Start(engine, RecoveryOptions()));
    sink_ = std::make_unique<esp::net::RecoverySink>(recovery_.get(), engine);
    esp::net::IngestSink* sink = sink_.get();
    if (trace::Enabled()) {
      traced_sink_ = std::make_unique<trace::TracedSink>(sink_.get(), traced_engine_.get());
      sink = traced_sink_.get();
    }
    esp::net::IngestServerOptions server_options;
    server_options.on_tick = [this](Timestamp now, const TickResult& result) {
      OnTick(now, result);
    };
    ESP_ASSIGN_OR_RETURN(server_, esp::net::IngestServer::Start(sink, server_options));
    esp::net::IngestClientOptions client_options;
    client_options.port = server_->port();
    client_options.client_id = "redwood_gateway";
    ESP_ASSIGN_OR_RETURN(client_, esp::net::IngestClient::Connect(client_options));
    return Status::OK();
  }

  void Teardown() {
    if (client_ != nullptr) (void)client_->Close();
    client_.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    traced_sink_.reset();
    sink_.reset();
    recovery_.reset();
    traced_engine_.reset();
    engine_.reset();
  }

  /// The generator: this tick's on-time readings plus the previous tick's
  /// late ones. Records what was sent for the oracle.
  void Generate(int64_t tick, std::vector<Tuple>& out) {
    const Timestamp t = TickTime(tick);
    const auto& delivered = trace_[tick % trace_ticks_];
    Sent sent;
    for (size_t i = 0; i < delivered.size(); ++i) {
      const auto& [mote, value] = delivered[i];
      const double v = static_cast<double>(value);
      if ((static_cast<int64_t>(i) + tick) % kLateEvery == 0) {
        sent.late.emplace_back(mote, v);
        continue;
      }
      sent.on_time.emplace_back(mote, v);
      out.emplace_back(esp::sim::TempReadingSchema(),
                       std::vector<Value>{mote_values_[mote], Value::Double(v)}, t);
    }
    if (tick > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      const Sent& previous = sent_.at(tick - 1);
      const Timestamp prev_t = TickTime(tick - 1);
      for (const auto& [mote, v] : previous.late) {
        out.emplace_back(esp::sim::TempReadingSchema(),
                         std::vector<Value>{mote_values_[mote], Value::Double(v)}, prev_t);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    sent_[tick] = std::move(sent);
  }

  static Timestamp TickTime(int64_t tick) {
    return Timestamp::Micros((tick + 1) * kEpochMicros);
  }

  /// Application side of the server: takes the tick's rows (event-loop
  /// thread) and hands them to the checker.
  void OnTick(Timestamp now, const TickResult& result) {
    Output out;
    out.received_ns = NowNs();
    out.tick = now.micros() / kEpochMicros - 1;
    out.rows = RowsOf(result);
    const int64_t tick = out.tick;
    {
      std::lock_guard<std::mutex> lock(mu_);
      outputs_.push_back(std::move(out));
    }
    cv_.notify_one();
    results_through_.store(tick);
    results_through_.notify_all();
  }

  /// What a run's closed or open segments measured, summed over segments.
  struct PhaseStats {
    int64_t ticks = 0;
    int64_t readings = 0;
    /// Closed loop: first push -> last result wall time, and the program's
    /// CPU over it (generator and checker CPU excluded).
    double busy_s = 0;
    double program_cpu_s = 0;
    OpenLoopStats latency;  // Open loop: due time -> result in hand.
    std::vector<int64_t> tick_ids;     // Ticks sent, in order.
    std::vector<int64_t> send_ns;      // Per tick, client PushBatch+PushTick.
    std::vector<int64_t> ack_wait_ns;  // Per tick, client Flush (open loop).
  };

  /// Sends `ticks` ticks from `first_tick`: back to back (closed) or at
  /// kOpenRateHz (open).
  void RunPhase(int64_t first_tick, bool open, int64_t ticks,
                PhaseStats& stats, RunResult& out) {
    std::atomic<int64_t> last_tick{-1};
    std::atomic<int64_t> generator_cpu_ns{0};
    std::atomic<int64_t> first_push_ns{0};
    int64_t checker_cpu_ns = 0;
    int64_t last_result_ns = 0;
    const int64_t cpu0 = ProcessCpuNs();
    std::atomic<bool> done{false};
    const int64_t period = static_cast<int64_t>(1e9 / kOpenRateHz);
    std::vector<std::atomic<int64_t>> due(open ? ticks : 0);
    Status client_status = Status::OK();
    int64_t attempted = 0;
    std::thread client([&] {
      std::vector<Tuple> batch;
      const int64_t origin = NowNs() + period;
      for (int64_t i = 0; i < ticks; ++i) {
        const int64_t tick = first_tick + i;
        const int64_t c0 = ThreadCpuNs();
        batch.clear();
        Generate(tick, batch);
        generator_cpu_ns.fetch_add(ThreadCpuNs() - c0);
        int64_t start = NowNs();
        if (i == 0) first_push_ns.store(start);
        if (open) {
          due[i].store(origin + i * period);
          SleepUntilNs(origin + i * period);
          start = NowNs();
          stats.latency.generator_late_ms.Add(
              (start - (origin + i * period)) / 1e6);
        } else {
          // Keep a bounded pipeline: at most kMaxTicksInFlight ticks
          // between the client and the application's last result. Blocks
          // until OnTick advances the count.
          for (int64_t through = results_through_.load();
               tick - through > kMaxTicksInFlight;
               through = results_through_.load()) {
            results_through_.wait(through);
          }
        }
        const size_t n = batch.size();
        attempted += static_cast<int64_t>(n) + 1;
        Status s = n > 0 ? client_->PushBatch(kMoteType, batch) : Status::OK();
        if (s.ok()) s = client_->PushTick(TickTime(tick));
        const int64_t sent = NowNs();
        stats.tick_ids.push_back(tick);
        stats.send_ns.push_back(sent - start);
        if (open && s.ok()) {
          s = client_->Flush();
          stats.ack_wait_ns.push_back(NowNs() - sent);
        }
        if (!s.ok()) {
          client_status = s;
          break;
        }
        stats.readings += static_cast<int64_t>(n);
        ++stats.ticks;
        last_tick.store(tick);
      }
      if (client_status.ok()) client_status = client_->Flush();
      done.store(true);
      cv_.notify_one();
    });

    // Checker: verify each tick's output as it arrives.
    int64_t next = first_tick;
    while (true) {
      Output o;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::milliseconds(50), [&] {
          return !outputs_.empty() || done.load();
        });
        if (outputs_.empty()) {
          if (done.load() && (!client_status.ok() || next > last_tick.load())) break;
          continue;
        }
        o = std::move(outputs_.front());
        outputs_.pop_front();
      }
      const int64_t c0 = ThreadCpuNs();
      if (o.tick != next) {
        out.Fail("redwood: result for tick " + std::to_string(o.tick) +
                 ", expected " + std::to_string(next));
      }
      if (open) {
        const int64_t i = o.tick - first_tick;
        if (i >= 0 && i < ticks) {
          const double ms = (o.received_ns - due[i].load()) / 1e6;
          stats.latency.latency_ms.Add(ms);
        }
      }
      last_result_ns = o.received_ns;
      Check(o, out);
      ++next;
      checker_cpu_ns += ThreadCpuNs() - c0;
    }
    client.join();
    if (!open) {
      stats.busy_s += (last_result_ns - first_push_ns.load()) / 1e9;
      stats.program_cpu_s += (ProcessCpuNs() - cpu0 - generator_cpu_ns.load() -
                              checker_cpu_ns) /
                             1e9;
    }
    out.attempted += attempted;
    if (!client_status.ok()) {
      ++out.failed;
      out.Fail("redwood: client: " + client_status.ToString());
    }
  }

  /// Oracle for one tick: Smooth over the released readings of the last
  /// five epochs (this epoch is held back by the lateness horizon), then
  /// the outlier-rejecting average per 2-mote group.
  void Check(const Output& o, RunResult& out) {
    const int64_t tick = o.tick;
    // Readings of epoch tick-1 (on time and late) are released at this
    // tick; the 30 min window then spans epochs tick-5 .. tick-1.
    if (tick >= 1) {
      Sent released;
      {
        std::lock_guard<std::mutex> lock(mu_);
        released = sent_.at(tick - 1);
        sent_.erase(tick - 2);
      }
      for (const auto& [mote, v] : released.on_time) mote_windows_[mote].push_back({tick - 1, v});
      for (const auto& [mote, v] : released.late) mote_windows_[mote].push_back({tick - 1, v});
    }
    std::vector<double> smoothed(kMotes, std::nan(""));
    for (int m = 0; m < kMotes; ++m) {
      auto& w = mote_windows_[m];
      while (!w.empty() && w.front().first <= tick - kSmoothEpochs) w.pop_front();
      if (w.empty()) continue;
      double sum = 0;
      for (const auto& e : w) sum += e.second;
      smoothed[m] = sum / static_cast<double>(w.size());
    }
    std::vector<double> got(kGroups, std::nan(""));
    std::vector<int> rows(kGroups, 0);
    for (const auto& [granule, temp] : o.rows) {
      const auto it = granule_group_.find(granule.string_value());
      if (it == granule_group_.end()) {
        out.Fail("redwood: unknown granule");
        return;
      }
      got[it->second] = temp;
      ++rows[it->second];
    }
    std::vector<double> values;
    for (int g = 0; g < kGroups; ++g) {
      values.clear();
      for (int m = 2 * g; m < 2 * g + 2; ++m) {
        if (!std::isnan(smoothed[m])) values.push_back(smoothed[m]);
      }
      const bool ok = rows[g] <= 1 && OutlierRejectingAverageMatches(values, got[g]) &&
                      (rows[g] == 1) == !std::isnan(got[g]);
      if (!ok) {
        out.Fail("redwood: tick " + std::to_string(tick) + " group " +
                 std::to_string(g) + " reported " + std::to_string(got[g]));
      }
    }
    // Keep the last outputs for the resume comparison.
    recent_[o.tick] = o.rows;
    while (recent_.size() > kCheckpointTicks + kLockstepTicks) recent_.erase(recent_.begin());
  }

  /// Stops the live session and proves a Resume of its directory
  /// reproduces the live engine: replayed ticks equal the live outputs,
  /// then both engines tick in lockstep on the same fresh inputs.
  void VerifyResume(int64_t next_tick, RunResult& out) {
    (void)client_->Close();
    server_->Stop();
    recovery_.reset();  // Releases the directory lock.
    auto resumed_engine = MakeEngine();
    if (!resumed_engine.ok()) Die("redwood resume engine", resumed_engine.status());
    esp::core::RestoreReport report;
    int64_t compared = 0;
    auto resumed = esp::core::RecoveryCoordinator::Resume(
        resumed_engine->get(), RecoveryOptions(), &report,
        [&](Timestamp now, const TickResult& result) -> Status {
          const int64_t tick = now.micros() / kEpochMicros - 1;
          const auto it = recent_.find(tick);
          if (it == recent_.end()) return Status::OK();
          ++compared;
          if (!SameRows(RowsOf(result), it->second)) {
            out.Fail("redwood: replayed tick " + std::to_string(tick) + " differs");
          }
          return Status::OK();
        });
    if (!resumed.ok()) {
      out.Fail("redwood: resume failed: " + resumed.status().ToString());
      return;
    }
    // Lockstep: the live engine (no journal) and the resumed session take
    // the same next inputs and must agree bit for bit.
    esp::core::StreamEngine* live = engine_.get();
    std::vector<Tuple> batch;
    for (int k = 0; k < kLockstepTicks; ++k) {
      const int64_t tick = next_tick + k;
      batch.clear();
      Generate(tick, batch);
      for (const Tuple& t : batch) {
        (void)live->Push(kMoteType, t);
        (void)(*resumed)->Push(kMoteType, t);
      }
      auto a = live->Tick(TickTime(tick));
      auto b = (*resumed)->Tick(TickTime(tick));
      ++compared;
      if (!a.ok() || !b.ok() || !SameRows(RowsOf(*a), RowsOf(*b))) {
        out.Fail("redwood: resumed engine diverged at tick " + std::to_string(tick));
      }
    }
    out.Detail("resume_replayed_ticks", static_cast<double>(report.replayed_ticks));
    out.Detail("resume_compared_ticks", static_cast<double>(compared));
    resumed->reset();
  }

  esp::core::EspProcessor* engine() { return engine_.get(); }
  trace::TracedEngine* traced_engine() { return traced_engine_.get(); }
  trace::TracedSink* traced_sink() { return traced_sink_.get(); }
  esp::net::IngestServer* server() { return server_.get(); }
  const std::string& dir() const { return dir_; }

 private:
  RunParams params_;
  std::string dir_;
  int64_t trace_ticks_ = 0;
  std::vector<std::vector<std::pair<int, float>>> trace_;
  std::vector<Value> mote_values_;
  std::unordered_map<std::string, int> granule_group_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Output> outputs_;
  std::atomic<int64_t> results_through_{-1};
  std::map<int64_t, Sent> sent_;
  std::vector<std::deque<std::pair<int64_t, double>>> mote_windows_;
  std::map<int64_t, Rows> recent_;

  std::unique_ptr<esp::core::EspProcessor> engine_;
  std::unique_ptr<trace::TracedEngine> traced_engine_;
  std::unique_ptr<esp::core::RecoveryCoordinator> recovery_;
  std::unique_ptr<esp::net::RecoverySink> sink_;
  std::unique_ptr<trace::TracedSink> traced_sink_;
  std::unique_ptr<esp::net::IngestServer> server_;
  std::unique_ptr<esp::net::IngestClient> client_;
};

int64_t SnapshotBytes(const std::string& dir) {
  int64_t newest_seq = -1;
  int64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap_", 0) != 0) continue;
    const int64_t seq = std::atoll(name.c_str() + 5);
    if (seq > newest_seq) {
      newest_seq = seq;
      bytes = static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return bytes;
}

}  // namespace

void RunRedwoodDurable(const RunParams& params, RunResult& out) {
  const std::string dir =
      params.work_dir + "/redwood_" + std::to_string(getpid());
  RedwoodDurable redwood(params, dir);
  const double setup_s = MeasureSetup(
      kSetupRepeats, [&] { redwood.Teardown(); },
      [&] { return redwood.Build(); }, "redwood_durable", out);
  // kRounds alternations of a closed-loop segment (the client pushes as
  // fast as the server takes it) and an open-loop segment at a fixed
  // offered tick rate; both accumulate into one PhaseStats each.
  const PhaseBudget budget = SplitPhases(params);
  const int64_t open_ticks = static_cast<int64_t>(budget.open_s * kOpenRateHz);
  const int64_t closed_segment =
      ClosedSegmentTicks(params, kClosedTicksPerS);
  RedwoodDurable::PhaseStats closed, open;
  int64_t next_tick = 0;
  for (int r = 0; r < kRounds; ++r) {
    redwood.RunPhase(next_tick, /*open=*/false, closed_segment, closed, out);
    next_tick += closed_segment;
    const int64_t segment = open_ticks * (r + 1) / kRounds -
                            open_ticks * r / kRounds;
    redwood.RunPhase(next_tick, /*open=*/true, segment, open, out);
    next_tick += segment;
  }

  const int64_t sent = closed.readings + open.readings;
  out.Metric("setup_s", setup_s, "s");
  out.Metric("readings_per_s",
             closed.busy_s > 0 ? closed.readings / closed.busy_s : 0,
             "readings/s");
  out.Metric("cpu_s_per_mreading",
             closed.readings > 0 ? closed.program_cpu_s / closed.readings * 1e6
                                 : 0,
             "s");
  out.Detail("closed_busy_s", closed.busy_s);
  out.Detail("closed_ticks", static_cast<double>(closed.ticks));
  out.Detail("closed_readings", static_cast<double>(closed.readings));
  out.Detail("open_ticks", static_cast<double>(open.ticks));
  open.latency.rate_hz = kOpenRateHz;
  ReportLatency(open.latency, out);

  if (params.trace) {
    // Every layer is quiescent: the client flushed and the last result is
    // in. Sink and engine records are one per tick, in tick order.
    trace::TracedEngine& engine = *redwood.traced_engine();
    trace::TracedSink& sink = *redwood.traced_sink();
    const size_t n = std::min(sink.ticks().size(), engine.ticks().size());
    int64_t server_self = 0, append_self = 0;
    Samples checkpoint_ms;
    for (size_t i = 0; i < n; ++i) {
      const trace::SinkTick& s = sink.ticks()[i];
      const trace::TickBreakdown& e = engine.ticks()[i];
      server_self += s.server_cpu_ns - s.sink_cpu_ns;
      const int64_t recovery_tick = s.sink_tick_ns - e.wall_ns;
      if (e.checkpointed) {
        checkpoint_ms.Add(recovery_tick / 1e6);
      } else {
        append_self += recovery_tick;
      }
      append_self += s.sink_push_ns - e.push_ns;
    }
    const double ticks = static_cast<double>(std::max<size_t>(n, 1));
    Samples send, ack;
    for (int64_t ns : open.send_ns) send.Add(ns / 1e6);
    for (int64_t ns : open.ack_wait_ns) ack.Add(ns / 1e6);
    out.Metric("net.client_send_ms", send.Mean(), "ms/tick");
    out.Metric("net.client_ack_wait_ms", ack.Mean(), "ms/tick");
    out.Metric("net.server_self_ms", server_self / 1e6 / ticks, "ms/tick");
    out.Metric("recovery.append_self_ms", append_self / 1e6 / ticks, "ms/tick");
    out.Metric("recovery.checkpoint_ms_p50", checkpoint_ms.Percentile(0.5), "ms");
    out.Metric("recovery.checkpoint_bytes",
               static_cast<double>(SnapshotBytes(redwood.dir())), "bytes");
    ReportStageMetrics(trace::Totals(true), static_cast<int64_t>(n), out);
    ReportProcessorMetrics(engine, 0, 0, out);

    // Tick-path accounting on the open-loop ticks: client send + server
    // CPU (decode, journal, engine, stages) against the tick's wall time
    // from its first send to its result, as the in-process loops measure
    // from the first push (the due -> result latency less how late the
    // generator started the tick).
    double path_ns = 0;
    for (size_t i = 0; i < open.tick_ids.size(); ++i) {
      path_ns += static_cast<double>(open.send_ns[i]);
      const size_t t = static_cast<size_t>(open.tick_ids[i]);
      if (t < n) path_ns += static_cast<double>(sink.ticks()[t].server_cpu_ns);
    }
    const double wall_ns = (open.latency.latency_ms.Sum() -
                            open.latency.generator_late_ms.Sum()) * 1e6;
    out.Metric("trace.accounted_share", wall_ns > 0 ? path_ns / wall_ns : 0,
               "ratio");
  }

  // The deployment's high-water mark, taken before the resume check (a
  // second engine replaying the journal is not part of the deployment).
  const double peak_rss_mb = SelfPeakRssMb();
  redwood.VerifyResume(next_tick, out);
  // Everything applied: the server's final count against what was sent
  // (the last tick's late readings are never sent).
  const esp::core::IngestStats ingest = redwood.server()->StatsSnapshot();
  out.Detail("readings_sent", static_cast<double>(sent));
  out.Detail("readings_applied", static_cast<double>(ingest.readings_applied));
  if (ingest.readings_applied != sent) {
    out.Fail("redwood: server applied " + std::to_string(ingest.readings_applied) +
             " readings, client sent " + std::to_string(sent));
  }
  if (params.trace) {
    // Read after the server stopped (Health() shares Push/Tick's thread).
    const esp::core::PipelineHealth health = redwood.engine()->Health();
    out.Metric("recovery.journal_records_per_reading",
               sent > 0 ? static_cast<double>(health.recovery.journal_records) / sent : 0,
               "records");
    out.Metric("recovery.journal_bytes_per_reading",
               sent > 0 ? static_cast<double>(health.recovery.journal_bytes) / sent : 0,
               "bytes");
    out.Metric("processor.buffered_tuples",
               static_cast<double>(redwood.engine()->BufferedTuples()), "tuples");
    out.Metric("processor.late_admitted",
               static_cast<double>(health.total_late_admitted), "readings");
    out.Metric("net.bytes_per_reading",
               ingest.readings_applied > 0
                   ? static_cast<double>(ingest.bytes_received) / ingest.readings_applied
                   : 0,
               "bytes");
    out.Metric("net.frames_decoded",
               ingest.ticks_applied > 0
                   ? static_cast<double>(ingest.frames_decoded) / ingest.ticks_applied
                   : 0,
               "frames/tick");
  }
  out.Metric("peak_rss_mb", peak_rss_mb, "MiB");
  redwood.Teardown();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace espbench
