// shelf_fleet: the Section 4 retail RFID deployment replicated over N
// stores (ShelfWorld, 5 Hz), cleaned by CQL Smooth (Query 2) and CQL
// Arbitrate (Query 3, ArbitrateMaxCount) on a ShardedEspProcessor with a
// fixed shard count, readings pushed in-process.
//
// Oracle: per-receptor presence counts over the 5 s window and the
// max-count attribution (ties stay in every tying granule), recomputed
// with plain arrays from the generated readings and compared row for row
// on every tick; and the cleaned Eq. 1 shelf-count error against the
// world's truth must beat the raw error.

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "core/sharded_processor.h"
#include "core/toolkit.h"
#include "loop.h"
#include "sim/reading.h"
#include "sim/shelf_world.h"
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

constexpr int kStores = 3;
constexpr int kShelves = 2;
constexpr size_t kShards = 2;
constexpr int64_t kTickMicros = 200000;  // 5 Hz.
constexpr int kWindowTicks = 25;         // 5 s temporal granule.
constexpr double kOpenRateHz = 100;
// Nominal closed-loop speed: sizes the closed-loop segments (fixed work).
constexpr double kClosedTicksPerS = 400;
constexpr int kSetupRepeats = 11;
const std::string kRfid = "rfid";

/// One store's trace, compacted: per tick, (shelf, tag) read events.
struct Store {
  std::vector<uint32_t> begin;  // Per tick: first event index.
  std::vector<uint16_t> events;  // shelf << 8 | tag.
  std::vector<std::array<int16_t, kShelves>> truth;
  std::vector<Value> tag_values;
  std::array<Value, kShelves> reader_values;
  int num_tags = 0;
};

class ShelfFleet : public Deployment {
 public:
  explicit ShelfFleet(uint64_t seed) {
    for (int s = 0; s < kStores; ++s) {
      esp::sim::ShelfWorld::Config config;
      config.seed = ReplicaSeed(seed, 1, s);
      esp::sim::ShelfWorld world(config);
      Store store;
      std::unordered_map<std::string, int> tag_index;
      for (int shelf = 0; shelf < kShelves; ++shelf) {
        store.reader_values[shelf] =
            Value::Interned(ReaderId(s, shelf));
        granule_index_[GranuleId(s, shelf)] = s * kShelves + shelf;
      }
      for (const auto& tick : world.Generate()) {
        store.begin.push_back(static_cast<uint32_t>(store.events.size()));
        store.truth.push_back({static_cast<int16_t>(tick.true_counts[0]),
                               static_cast<int16_t>(tick.true_counts[1])});
        for (const auto& reading : tick.readings) {
          const int shelf = reading.reader_id == "reader_0" ? 0 : 1;
          auto [it, inserted] = tag_index.emplace(
              reading.tag_id, static_cast<int>(tag_index.size()));
          if (inserted) {
            const std::string id = "st" + std::to_string(s) + "_" + reading.tag_id;
            store.tag_values.push_back(Value::Interned(id));
            tag_lookup_[id] = {s, it->second};
          }
          store.events.push_back(
              static_cast<uint16_t>(shelf << 8 | it->second));
        }
      }
      store.begin.push_back(static_cast<uint32_t>(store.events.size()));
      store.num_tags = static_cast<int>(tag_index.size());
      trace_ticks_ = static_cast<int64_t>(store.truth.size());
      stores_.push_back(std::move(store));
    }
    window_.assign(kStores, {});
    for (int s = 0; s < kStores; ++s) {
      window_[s].assign(kShelves * stores_[s].num_tags, 0);
    }
  }

  static std::string ReaderId(int store, int shelf) {
    return "st" + std::to_string(store) + "_reader_" + std::to_string(shelf);
  }
  static std::string GranuleId(int store, int shelf) {
    return "st" + std::to_string(store) + "_shelf_" + std::to_string(shelf);
  }

  /// The engine's receptor -> shard routing, replayed from the group list
  /// Build() registers: a type's G groups are split into contiguous blocks
  /// in registration order, the first G % N shards taking one group more.
  static std::unordered_map<std::string, int> ReceptorShards() {
    const size_t groups = kStores * kShelves;
    std::unordered_map<std::string, int> shards;
    size_t g = 0;
    for (size_t shard = 0; shard < kShards; ++shard) {
      const size_t take = groups / kShards + (shard < groups % kShards ? 1 : 0);
      for (size_t i = 0; i < take; ++i, ++g) {
        shards[ReaderId(static_cast<int>(g / kShelves),
                        static_cast<int>(g % kShelves))] =
            static_cast<int>(shard);
      }
    }
    return shards;
  }

  /// Builds and starts a fresh engine (the timed set-up).
  void Teardown() {
    traced_.reset();
    engine_.reset();
    driven_ = nullptr;
  }

  Status Build() {
    esp::core::ShardedEspProcessor::Options options;
    options.num_shards = kShards;
    auto engine = std::make_unique<esp::core::ShardedEspProcessor>(options);
    for (int s = 0; s < kStores; ++s) {
      for (int shelf = 0; shelf < kShelves; ++shelf) {
        ESP_RETURN_IF_ERROR(engine->AddProximityGroup(
            {"st" + std::to_string(s) + "_pg" + std::to_string(shelf), kRfid,
             esp::core::SpatialGranule{GranuleId(s, shelf)},
             {ReaderId(s, shelf)}}));
      }
    }
    esp::core::DeviceTypePipeline rfid;
    rfid.device_type = kRfid;
    rfid.reading_schema = esp::sim::RfidReadingSchema();
    rfid.receptor_id_column = "reader_id";
    rfid.smooth = trace::WrapFactory(esp::core::SmoothPresenceCount(
        esp::core::TemporalGranule(Duration::Seconds(5)), "tag_id"));
    rfid.arbitrate =
        trace::WrapFactory(esp::core::ArbitrateMaxCount("tag_id", "reads"));
    ESP_RETURN_IF_ERROR(engine->AddPipeline(std::move(rfid)));
    ESP_RETURN_IF_ERROR(engine->Start());
    engine_ = std::move(engine);
    driven_ = engine_.get();
    if (trace::Enabled()) {
      traced_ = std::make_unique<trace::TracedEngine>(engine_.get());
      driven_ = traced_.get();
    }
    return Status::OK();
  }

  void Generate(int64_t tick, std::vector<Reading>& out) override {
    const Timestamp t = TickTime(tick);
    const int64_t index = tick % trace_ticks_;
    for (const Store& store : stores_) {
      for (uint32_t e = store.begin[index]; e < store.begin[index + 1]; ++e) {
        const uint16_t ev = store.events[e];
        out.emplace_back(&kRfid, Tuple(esp::sim::RfidReadingSchema(),
                                       {store.reader_values[ev >> 8],
                                        store.tag_values[ev & 0xff]},
                                       t));
      }
    }
  }

  Timestamp TickTime(int64_t tick) const override {
    return Timestamp::Micros(tick * kTickMicros);
  }

  Status Push(const std::string& type, Tuple t) override {
    return driven_->Push(type, std::move(t));
  }
  StatusOr<TickResult> Tick(Timestamp now) override {
    return driven_->Tick(now);
  }

  void Check(int64_t tick, const TickResult& result, RunResult& out) override {
    // Slide the oracle's per-(shelf, tag) window counts to this tick.
    const int64_t index = tick % trace_ticks_;
    const int64_t expired = tick - kWindowTicks;
    for (int s = 0; s < kStores; ++s) {
      const Store& store = stores_[s];
      for (uint32_t e = store.begin[index]; e < store.begin[index + 1]; ++e) {
        const uint16_t ev = store.events[e];
        ++window_[s][(ev >> 8) * store.num_tags + (ev & 0xff)];
      }
      if (expired >= 0) {
        const int64_t old = expired % trace_ticks_;
        for (uint32_t e = store.begin[old]; e < store.begin[old + 1]; ++e) {
          const uint16_t ev = store.events[e];
          --window_[s][(ev >> 8) * store.num_tags + (ev & 0xff)];
        }
      }
    }
    // Expected Arbitrate output: per tag, every granule at the max count.
    expected_.clear();
    std::array<std::array<int, kShelves>, kStores> cleaned{};
    for (int s = 0; s < kStores; ++s) {
      const Store& store = stores_[s];
      for (int tag = 0; tag < store.num_tags; ++tag) {
        int best = 0;
        for (int shelf = 0; shelf < kShelves; ++shelf) {
          best = std::max(best, window_[s][shelf * store.num_tags + tag]);
        }
        if (best == 0) continue;
        for (int shelf = 0; shelf < kShelves; ++shelf) {
          if (window_[s][shelf * store.num_tags + tag] == best) {
            expected_.push_back(Key(s, shelf, tag, best));
            ++cleaned[s][shelf];
          }
        }
      }
    }
    // The program's rows, as the same keys.
    actual_.clear();
    if (result.per_type.size() != 1) {
      out.Fail("shelf: expected one output type");
      return;
    }
    for (const Tuple& row : result.per_type[0].second.tuples()) {
      const auto granule = granule_index_.find(row.value(0).string_value());
      const auto tag = tag_lookup_.find(row.value(1).string_value());
      if (granule == granule_index_.end() || tag == tag_lookup_.end()) {
        out.Fail("shelf: unknown row " + row.ToString());
        return;
      }
      actual_.push_back(Key(granule->second / kShelves,
                            granule->second % kShelves, tag->second.second,
                            static_cast<int>(row.value(2).int64_value())));
    }
    std::sort(expected_.begin(), expected_.end());
    std::sort(actual_.begin(), actual_.end());
    if (expected_ != actual_) {
      out.Fail("shelf: tick " + std::to_string(tick) + " has " +
               std::to_string(actual_.size()) + " rows, oracle " +
               std::to_string(expected_.size()));
    }
    // Eq. 1 against the world's truth, raw vs cleaned.
    for (int s = 0; s < kStores; ++s) {
      const Store& store = stores_[s];
      std::array<std::vector<bool>, kShelves> seen;
      for (auto& v : seen) v.assign(store.num_tags, false);
      for (uint32_t e = store.begin[index]; e < store.begin[index + 1]; ++e) {
        const uint16_t ev = store.events[e];
        seen[ev >> 8][ev & 0xff] = true;
      }
      for (int shelf = 0; shelf < kShelves; ++shelf) {
        const double truth = std::max<int>(1, store.truth[index][shelf]);
        const double raw = static_cast<double>(
            std::count(seen[shelf].begin(), seen[shelf].end(), true));
        raw_error_ += std::abs(raw - truth) / truth;
        cleaned_error_ += std::abs(cleaned[s][shelf] - truth) / truth;
        ++error_samples_;
      }
    }
  }

  double raw_error() const { return raw_error_ / std::max<int64_t>(1, error_samples_); }
  double cleaned_error() const {
    return cleaned_error_ / std::max<int64_t>(1, error_samples_);
  }

  esp::core::ShardedEspProcessor* engine() { return engine_.get(); }
  trace::TracedEngine* traced() { return traced_.get(); }

 private:
  static uint64_t Key(int store, int shelf, int tag, int count) {
    return (static_cast<uint64_t>(store) << 48) |
           (static_cast<uint64_t>(shelf) << 40) |
           (static_cast<uint64_t>(tag) << 32) | static_cast<uint32_t>(count);
  }

  std::vector<Store> stores_;
  int64_t trace_ticks_ = 0;
  std::unordered_map<std::string, int> granule_index_;
  std::unordered_map<std::string, std::pair<int, int>> tag_lookup_;
  std::vector<std::vector<int>> window_;
  std::vector<uint64_t> expected_;
  std::vector<uint64_t> actual_;
  double raw_error_ = 0;
  double cleaned_error_ = 0;
  int64_t error_samples_ = 0;
  std::unique_ptr<esp::core::ShardedEspProcessor> engine_;
  std::unique_ptr<trace::TracedEngine> traced_;
  esp::core::StreamEngine* driven_ = nullptr;
};

}  // namespace

void RunShelfFleet(const RunParams& params, RunResult& out) {
  ShelfFleet fleet(params.seed);
  if (params.trace) {
    trace::SetShardRouting("reader_id", ShelfFleet::ReceptorShards(),
                           static_cast<int>(kShards));
  }
  const double setup_s = MeasureSetup(
      kSetupRepeats, [&] { fleet.Teardown(); },
      [&] { return fleet.Build(); }, "shelf_fleet", out);
  const LoopStats stats = RunRounds(fleet, params, kClosedTicksPerS, kOpenRateHz, out);
  if (params.trace) {
    ReportProcessorMetrics(*fleet.traced(), stats.loop_tick_ns, 0, out);
    const trace::AllKinds totals = trace::Totals(true);
    ReportStageMetrics(totals, stats.ticks, out);
    out.Metric("processor.buffered_tuples",
               static_cast<double>(fleet.engine()->BufferedTuples()), "tuples");
    out.Metric("processor.late_admitted",
               static_cast<double>(fleet.engine()->Health().total_late_admitted),
               "readings");
    const auto& arbitrate =
        totals[static_cast<int>(esp::core::StageKind::kArbitrate)];
    out.Detail("arbitrate_share_of_tick",
               static_cast<double>(arbitrate.push_ns + arbitrate.eval_ns) /
                   stats.loop_tick_ns);
  }
  out.Detail("stores", kStores);
  out.Detail("shards", static_cast<double>(kShards));
  out.Detail("raw_eq1_error", fleet.raw_error());
  out.Detail("cleaned_eq1_error", fleet.cleaned_error());
  if (!(fleet.cleaned_error() < fleet.raw_error())) {
    out.Fail("shelf: cleaned Eq. 1 error is not below the raw error");
  }
  ReportEndToEnd(stats, setup_s, SelfPeakRssMb(), out);
}

}  // namespace espbench
