// home_serving: the Section 6 digital home (HomeWorld: RFID + sound motes
// + X10) replicated over H homes on one EspProcessor, with a per-home CQL
// Virtualize person detector, and several thousand standing subscriptions
// from four tenants over the cleaned streams (three quarters of them
// duplicate texts; RANGE and ROWS windows). Every few ticks a fixed number of
// subscriptions is unregistered and as many registered.
//
// Oracle: every subscription family's result recomputed from the cleaned
// streams the program returned (every 8th tick, all subscriptions);
// identical texts give identical results (every tick); the Virtualize
// output recomputed from the cleaned streams (every tick); and the
// detector's accuracy against HomeWorld truth stays at or above 0.80.

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <unordered_map>

#include "core/processor.h"
#include "core/toolkit.h"
#include "loop.h"
#include "oracle.h"
#include "sim/home_world.h"
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
using esp::stream::Relation;
using esp::stream::Tuple;
using esp::stream::Value;

constexpr int kHomes = 8;
constexpr int64_t kTickMicros = 200000;  // 5 Hz RFID polling.
constexpr int kTicksPerSecond = 5;
constexpr int kDistinctQueries = 320;
constexpr int kSubscriptions = 2560;  // Duplicate ratio 0.875.
constexpr int kWindowSteps = 5;  // Range 1..5 ticks, Rows 8..40.
constexpr int kRowsPerStep = 8;
constexpr int kChurnEvery = 4;        // Ticks.
constexpr int kChurnSize = 6;         // Unregistered + registered.
constexpr int kCheckEvery = 8;        // Ticks between full result checks.
constexpr double kOpenRateHz = 60;
// Nominal closed-loop speed: sizes the closed-loop segments (fixed work).
constexpr double kClosedTicksPerS = 200;
constexpr int kSetupRepeats = 2;
const std::string kRfid = "rfid";
const std::string kMote = "mote";
const std::string kX10 = "x10";
const char* kTenants[] = {"tenant_a", "tenant_b", "tenant_c", "tenant_d"};

struct Event {
  uint8_t kind;  // 0 rfid, 1 sound, 2 motion.
  uint8_t device;
  uint8_t tag;  // RFID: 0 person, 1 errant.
  double value;
};

struct Home {
  std::vector<uint32_t> begin;
  std::vector<Event> events;
  std::vector<bool> present;
  std::array<Value, 2> readers;
  std::array<Value, 3> motes;
  std::array<Value, 3> detectors;
  std::array<Value, 2> tags;
};

/// One distinct subscription text and how to recompute it.
struct QuerySpec {
  int family = 0;  // 0 avg range sensors, 1 max/min rows sensors,
                   // 2 count range motion, 3 grouped sum/max rows rfid.
  int home = 0;
  int window = 0;   // Ticks (range) or tuples (rows).
  int variant = 0;  // Threshold or aggregate choice within the family.
  std::string text;
};

/// One cleaned-stream row the oracle keeps: (tick, home, value).
struct Row {
  int64_t tick;
  int home;
  double value;
};

std::string HomeGranule(int h) { return "home_" + std::to_string(h); }

/// Distinct query i: family x home x window step x variant.
QuerySpec MakeQuery(int i) {
  QuerySpec q;
  q.family = i % 4;
  q.home = (i / 4) % kHomes;
  const int step = 1 + (i / (4 * kHomes)) % kWindowSteps;
  q.variant = (i / (4 * kHomes * kWindowSteps)) % 2;
  const std::string home = "'" + HomeGranule(q.home) + "'";
  const std::string range =
      "[Range By '" + std::to_string(step * kTickMicros / 1000) + " ms']";
  switch (q.family) {
    case 0:
      q.window = step;
      q.text = "SELECT avg(noise) AS v FROM sensors_input " + range +
               " WHERE spatial_granule = " + home + " AND noise > " +
               std::to_string(480 + 20 * q.variant);
      break;
    case 1:
      q.window = kRowsPerStep * step;
      q.text = std::string("SELECT ") + (q.variant == 0 ? "max" : "min") +
               "(noise) AS v FROM sensors_input [Rows " +
               std::to_string(q.window) + "] WHERE spatial_granule = " + home;
      break;
    case 2:
      q.window = step;
      q.text = "SELECT count(*) AS c FROM motion_input " + range +
               " WHERE spatial_granule = " + home + " AND votes >= " +
               std::to_string(2 + q.variant);
      break;
    default:
      q.window = kRowsPerStep * step;
      q.text = std::string("SELECT tag_id, ") +
               (q.variant == 0 ? "sum" : "max") +
               "(reads) AS r FROM rfid_input [Rows " +
               std::to_string(q.window) + "] WHERE spatial_granule = " + home +
               " GROUP BY tag_id";
      break;
  }
  return q;
}

class HomeServing : public Deployment {
 public:
  explicit HomeServing(uint64_t seed) : rng_(ReplicaSeed(seed, 3, 999)) {
    for (int h = 0; h < kHomes; ++h) {
      esp::sim::HomeWorld::Config config;
      config.seed = ReplicaSeed(seed, 3, h);
      esp::sim::HomeWorld world(config);
      Home home;
      const std::string p = "h" + std::to_string(h) + "_";
      for (int i = 0; i < 2; ++i) {
        home.readers[i] =
            Value::Interned(p + esp::sim::HomeWorld::ReaderId(i));
      }
      for (int i = 0; i < 3; ++i) {
        home.motes[i] = Value::Interned(p + esp::sim::HomeWorld::MoteId(i));
        home.detectors[i] =
            Value::Interned(p + esp::sim::HomeWorld::DetectorId(i));
      }
      home.tags[0] = Value::Interned(p + esp::sim::HomeWorld::kPersonTag);
      home.tags[1] = Value::Interned(p + esp::sim::HomeWorld::kErrantTag);
      granule_home_[HomeGranule(h)] = h;
      tag_home_[home.tags[0].string_value()] = h;
      for (const auto& tick : world.Generate()) {
        home.begin.push_back(static_cast<uint32_t>(home.events.size()));
        home.present.push_back(tick.person_present);
        for (const auto& r : tick.rfid) {
          const uint8_t reader = r.reader_id == esp::sim::HomeWorld::ReaderId(0) ? 0 : 1;
          const uint8_t tag = r.tag_id == esp::sim::HomeWorld::kPersonTag ? 0 : 1;
          home.events.push_back({0, reader, tag, 0});
        }
        for (const auto& r : tick.sound) {
          for (uint8_t m = 0; m < 3; ++m) {
            if (r.mote_id == esp::sim::HomeWorld::MoteId(m)) {
              home.events.push_back({1, m, 0, r.value});
            }
          }
        }
        for (const auto& r : tick.motion) {
          for (uint8_t d = 0; d < 3; ++d) {
            if (r.detector_id == esp::sim::HomeWorld::DetectorId(d)) {
              home.events.push_back({2, d, 0, 0});
            }
          }
        }
      }
      home.begin.push_back(static_cast<uint32_t>(home.events.size()));
      trace_ticks_ = static_cast<int64_t>(home.present.size());
      homes_.push_back(std::move(home));
    }
    for (int i = 0; i < kDistinctQueries; ++i) queries_.push_back(MakeQuery(i));
    for (int s = 0; s < kSubscriptions; ++s) {
      const int q = s < kDistinctQueries
                        ? s
                        : static_cast<int>(rng_() % kDistinctQueries);
      initial_subs_.push_back(q);
    }
    raw_hits_.fill(0);
    cleaned_hits_.fill(0);
    last_sound_.assign(kHomes, -1);
    last_motion_.assign(kHomes, -1);
  }

  /// Builds, starts, and registers every initial subscription (the timed
  /// set-up). Resets the oracle's subscription table.
  void Teardown() {
    traced_.reset();
    engine_.reset();
    driven_ = nullptr;
  }

  Status Build() {
    auto engine = std::make_unique<esp::core::EspProcessor>();
    for (int h = 0; h < kHomes; ++h) {
      const Home& home = homes_[h];
      const esp::core::SpatialGranule granule{HomeGranule(h)};
      const std::string p = "h" + std::to_string(h) + "_";
      ESP_RETURN_IF_ERROR(engine->AddProximityGroup(
          {p + "pg_rfid", kRfid, granule,
           {home.readers[0].string_value(), home.readers[1].string_value()}}));
      ESP_RETURN_IF_ERROR(engine->AddProximityGroup(
          {p + "pg_motes", kMote, granule,
           {home.motes[0].string_value(), home.motes[1].string_value(),
            home.motes[2].string_value()}}));
      ESP_RETURN_IF_ERROR(engine->AddProximityGroup(
          {p + "pg_x10", kX10, granule,
           {home.detectors[0].string_value(), home.detectors[1].string_value(),
            home.detectors[2].string_value()}}));
    }
    std::vector<std::string> person_tags;
    for (const Home& home : homes_) person_tags.push_back(home.tags[0].string_value());

    esp::core::DeviceTypePipeline rfid;
    rfid.device_type = kRfid;
    rfid.reading_schema = esp::sim::RfidReadingSchema();
    rfid.receptor_id_column = "reader_id";
    rfid.point.push_back(trace::WrapFactory(
        esp::core::PointValueFilter("tag_id", person_tags)));
    rfid.smooth = trace::WrapFactory(esp::core::SmoothPresenceCount(
        esp::core::TemporalGranule(Duration::Seconds(5)), "tag_id"));
    rfid.merge = trace::WrapFactory(esp::core::MergeUnion());
    rfid.virtualize_input = "rfid_input";
    ESP_RETURN_IF_ERROR(engine->AddPipeline(std::move(rfid)));

    esp::core::DeviceTypePipeline motes;
    motes.device_type = kMote;
    motes.reading_schema = esp::sim::SoundReadingSchema();
    motes.receptor_id_column = "mote_id";
    motes.smooth = trace::WrapFactory(esp::core::SmoothWindowedAverage(
        esp::core::TemporalGranule(Duration::Seconds(5)), "mote_id", "noise"));
    motes.merge = trace::WrapFactory(esp::core::MergeWindowedAverage(
        esp::core::TemporalGranule(Duration::Seconds(5)), "noise"));
    motes.virtualize_input = "sensors_input";
    ESP_RETURN_IF_ERROR(engine->AddPipeline(std::move(motes)));

    esp::core::DeviceTypePipeline x10;
    x10.device_type = kX10;
    x10.reading_schema = esp::sim::MotionReadingSchema();
    x10.receptor_id_column = "detector_id";
    x10.smooth = trace::WrapFactory(esp::core::SmoothPresenceCount(
        esp::core::TemporalGranule(Duration::Seconds(8)), "detector_id"));
    x10.merge = trace::WrapFactory(esp::core::MergeVoteThreshold(
        esp::core::TemporalGranule(Duration::Seconds(8)), "detector_id", 2));
    x10.virtualize_input = "motion_input";
    ESP_RETURN_IF_ERROR(engine->AddPipeline(std::move(x10)));

    // Query 6 per home: two of three modalities vote for presence.
    ESP_ASSIGN_OR_RETURN(
        std::unique_ptr<esp::core::CqlStage> detector,
        esp::core::CqlStage::Create(
            StageKind::kVirtualize, "virtualize_person",
            "SELECT s.spatial_granule AS home FROM sensors_input s "
            "[Range By 'NOW'] WHERE (CASE WHEN s.noise > 525 THEN 1 ELSE 0 "
            "END) + (SELECT CASE WHEN count(*) > 0 THEN 1 ELSE 0 END FROM "
            "rfid_input r [Range By 'NOW'] WHERE r.spatial_granule = "
            "s.spatial_granule AND r.reads >= 1) + (SELECT CASE WHEN "
            "count(*) > 0 THEN 1 ELSE 0 END FROM motion_input m [Range By "
            "'NOW'] WHERE m.spatial_granule = s.spatial_granule AND m.votes "
            ">= 2) >= 2"));
    engine->SetVirtualize(trace::WrapStage(std::move(detector)));
    ESP_RETURN_IF_ERROR(engine->Start());
    engine_ = std::move(engine);
    driven_ = engine_.get();
    if (trace::Enabled()) {
      traced_ = std::make_unique<trace::TracedEngine>(engine_.get());
      driven_ = traced_.get();
    }

    subs_.clear();
    sub_index_.clear();
    next_sub_name_ = 0;
    for (int q : initial_subs_) {
      ESP_RETURN_IF_ERROR(RegisterSub(q));
    }
    if (traced_ != nullptr) {
      engine_->query_serving().registry()->SetEvalTimerForTesting([this]() {
        const int64_t now = NowNs();
        if (eval_open_) eval_ns_ += now - eval_start_;
        eval_start_ = now;
        eval_open_ = !eval_open_;
        return now;
      });
    }
    return Status::OK();
  }

  int64_t registrations() const { return static_cast<int64_t>(initial_subs_.size()); }

  void Generate(int64_t tick, std::vector<Reading>& out) override {
    const Timestamp t = TickTime(tick);
    const int64_t index = tick % trace_ticks_;
    for (const Home& home : homes_) {
      for (uint32_t e = home.begin[index]; e < home.begin[index + 1]; ++e) {
        const Event& ev = home.events[e];
        if (ev.kind == 0) {
          out.emplace_back(&kRfid, Tuple(esp::sim::RfidReadingSchema(),
                                         {home.readers[ev.device],
                                          home.tags[ev.tag]},
                                         t));
        } else if (ev.kind == 1) {
          out.emplace_back(&kMote, Tuple(esp::sim::SoundReadingSchema(),
                                         {home.motes[ev.device],
                                          Value::Double(ev.value)},
                                         t));
        } else {
          out.emplace_back(&kX10, Tuple(esp::sim::MotionReadingSchema(),
                                        {home.detectors[ev.device], on_}, t));
        }
      }
    }
  }

  Timestamp TickTime(int64_t tick) const override {
    return Timestamp::Micros(tick * kTickMicros);
  }

  void BeforeTick(int64_t tick, int64_t& attempted,
                  int64_t& failed) override {
    if (tick == 0 || tick % kChurnEvery != 0) return;
    const int64_t start = NowNs();
    for (int i = 0; i < kChurnSize; ++i) {
      // Unregister the oldest live subscription, register a fresh one over
      // a randomly drawn text (usually a duplicate of a live plan).
      auto oldest = subs_.begin();
      ++attempted;
      if (!driven_->UnregisterQuery(oldest->second.name).ok()) ++failed;
      sub_index_.erase(oldest->second.name);
      subs_.erase(oldest);
      ++attempted;
      if (!RegisterSub(static_cast<int>(rng_() % kDistinctQueries)).ok()) {
        ++failed;
      }
    }
    churn_ms_.Add((NowNs() - start) / 1e6);
  }

  Status Push(const std::string& type, Tuple t) override {
    return driven_->Push(type, std::move(t));
  }
  StatusOr<TickResult> Tick(Timestamp now) override {
    return driven_->Tick(now);
  }

  void Check(int64_t tick, const TickResult& result, RunResult& out) override {
    if (result.per_type.size() != 3) {
      out.Fail("home: expected three output types");
      return;
    }
    // Fold this tick's cleaned streams into the oracle's history.
    std::vector<Row> sensors, motion, rfid;
    std::vector<double> noise(kHomes, std::nan(""));
    std::vector<bool> rfid_vote(kHomes, false), motion_vote(kHomes, false);
    for (const Tuple& row : result.per_type[1].second.tuples()) {
      const int h = granule_home_.at(row.value(0).string_value());
      const double v = row.value(1).is_null() ? std::nan("") : row.value(1).double_value();
      sensors.push_back({tick, h, v});
      noise[h] = v;
    }
    for (const Tuple& row : result.per_type[2].second.tuples()) {
      const int h = granule_home_.at(row.value(0).string_value());
      const double votes = static_cast<double>(row.value(1).int64_value());
      motion.push_back({tick, h, votes});
      if (votes >= 2) motion_vote[h] = true;
    }
    const esp::stream::SchemaRef& rs = result.per_type[0].second.schema();
    const size_t r_reads = rs->IndexOf("reads").value();
    const size_t r_granule = rs->IndexOf("spatial_granule").value();
    for (const Tuple& row : result.per_type[0].second.tuples()) {
      const int h = granule_home_.at(row.value(r_granule).string_value());
      const int64_t reads = row.value(r_reads).int64_value();
      rfid.push_back({tick, h, static_cast<double>(reads)});
      if (reads >= 1) rfid_vote[h] = true;
    }
    Append(sensors_, sensors, tick);
    Append(motion_, motion, tick);
    Append(rfid_, rfid, tick);

    // Virtualize, recomputed from the cleaned streams.
    std::vector<bool> detected(kHomes, false);
    if (result.virtualized.has_value()) {
      for (const Tuple& row : result.virtualized->tuples()) {
        detected[granule_home_.at(row.value(0).string_value())] = true;
      }
    }
    const int64_t index = tick % trace_ticks_;
    for (int h = 0; h < kHomes; ++h) {
      const bool has_sound = !std::isnan(noise[h]);
      const int votes = (has_sound && noise[h] > 525 ? 1 : 0) +
                        (rfid_vote[h] ? 1 : 0) + (motion_vote[h] ? 1 : 0);
      const bool expected = has_sound && votes >= 2;
      if (expected != detected[h]) {
        out.Fail("home: tick " + std::to_string(tick) + " home " +
                 std::to_string(h) + " detector disagrees with its inputs");
      }
      // Accuracy against truth: ESP vs each raw modality.
      const Home& home = homes_[h];
      bool rfid_raw = false;
      for (uint32_t e = home.begin[index]; e < home.begin[index + 1]; ++e) {
        const Event& ev = home.events[e];
        if (ev.kind == 0 && ev.tag == 0) rfid_raw = true;
        if (ev.kind == 1) last_sound_[h] = ev.value;
        if (ev.kind == 2) last_motion_[h] = tick;
      }
      const bool sound_raw = last_sound_[h] > 525;
      const bool motion_raw =
          last_motion_[h] >= 0 && tick - last_motion_[h] < kTicksPerSecond;
      const bool truth = home.present[index];
      esp_hits_ += detected[h] == truth;
      raw_hits_[0] += rfid_raw == truth;
      raw_hits_[1] += sound_raw == truth;
      raw_hits_[2] += motion_raw == truth;
      cleaned_hits_[0] += rfid_vote[h] == truth;
      cleaned_hits_[1] += (has_sound && noise[h] > 525) == truth;
      cleaned_hits_[2] += motion_vote[h] == truth;
      ++accuracy_samples_;
    }

    // Subscriptions: identical texts give identical results (every tick);
    // every family recomputed (every kCheckEvery ticks).
    if (result.query_results.size() != subs_.size()) {
      out.Fail("home: " + std::to_string(result.query_results.size()) +
               " subscription results for " + std::to_string(subs_.size()) +
               " subscriptions");
      return;
    }
    const bool full = tick % kCheckEvery == 0;
    std::vector<const Relation*> by_query(queries_.size(), nullptr);
    std::vector<int8_t> verified(queries_.size(), 0);
    for (const esp::cql::SubscriptionResult& r : result.query_results) {
      const auto it = sub_index_.find(r.name);
      if (it == sub_index_.end() || !r.status.ok() || r.result == nullptr) {
        out.Fail("home: subscription " + r.name + " failed or is unknown");
        continue;
      }
      const int q = it->second;
      if (by_query[q] == nullptr) {
        by_query[q] = r.result.get();
      } else if (by_query[q] != r.result.get() &&
                 by_query[q]->ToString() != r.result->ToString()) {
        out.Fail("home: duplicate texts disagree: " + queries_[q].text);
      }
      if (full && verified[q] == 0) {
        verified[q] = Verify(queries_[q], tick, *r.result) ? 1 : -1;
        if (verified[q] < 0) {
          out.Fail("home: tick " + std::to_string(tick) + " result of '" +
                   queries_[q].text + "' is " + r.result->ToString());
        }
      }
    }
  }

  double esp_accuracy() const {
    return static_cast<double>(esp_hits_) / std::max<int64_t>(1, accuracy_samples_);
  }
  /// Accuracy of one cleaned modality alone, each as the detector votes it.
  double cleaned_accuracy(int modality) const {
    return static_cast<double>(cleaned_hits_[modality]) /
           std::max<int64_t>(1, accuracy_samples_);
  }
  double raw_accuracy(int modality) const {
    return static_cast<double>(raw_hits_[modality]) /
           std::max<int64_t>(1, accuracy_samples_);
  }
  double best_raw_accuracy() const {
    return static_cast<double>(*std::max_element(raw_hits_.begin(), raw_hits_.end())) /
           std::max<int64_t>(1, accuracy_samples_);
  }
  const Samples& churn_ms() const { return churn_ms_; }
  int64_t eval_ns() const { return eval_ns_; }
  esp::core::EspProcessor* engine() { return engine_.get(); }
  trace::TracedEngine* traced() { return traced_.get(); }

 private:
  struct Sub {
    std::string name;
    int query;
  };

  Status RegisterSub(int q) {
    const std::string name = "sub_" + std::to_string(next_sub_name_++);
    const char* tenant = kTenants[next_sub_name_ % 4];
    ESP_RETURN_IF_ERROR(driven_->RegisterQuery(tenant, name, queries_[q].text));
    subs_.emplace(next_sub_name_, Sub{name, q});
    sub_index_[name] = q;
    return Status::OK();
  }

  /// Appends a tick's rows and prunes history no window can reach: more
  /// than the widest range and beyond the widest rows window.
  static void Append(std::deque<Row>& history, const std::vector<Row>& rows,
                     int64_t tick) {
    history.insert(history.end(), rows.begin(), rows.end());
    const int64_t max_ticks = kWindowSteps;
    const size_t max_rows = kRowsPerStep * kWindowSteps;
    while (history.size() > max_rows &&
           history.front().tick <= tick - max_ticks) {
      history.pop_front();
    }
  }

  static double ValueOf(const Value& v) {
    if (v.is_null()) return std::nan("");
    return v.type() == esp::stream::DataType::kInt64
               ? static_cast<double>(v.int64_value())
               : v.double_value();
  }

  bool Verify(const QuerySpec& q, int64_t tick, const Relation& got) const {
    // Window members, oldest first.
    std::vector<const Row*> members;
    if (q.family == 0 || q.family == 2) {
      const std::deque<Row>& history = q.family == 0 ? sensors_ : motion_;
      const int64_t first = tick - q.window + 1;
      for (const Row& r : history) {
        if (r.tick >= first && r.home == q.home) members.push_back(&r);
      }
    } else {
      const std::deque<Row>& history = q.family == 1 ? sensors_ : rfid_;
      const size_t n = std::min<size_t>(history.size(), q.window);
      for (size_t i = history.size() - n; i < history.size(); ++i) {
        if (history[i].home == q.home) members.push_back(&history[i]);
      }
    }
    if (q.family == 3) {
      // Grouped by tag: every rfid row carries the home's person tag.
      if (members.empty()) return got.size() == 0;
      int64_t agg = 0;
      for (const Row* r : members) {
        const int64_t reads = static_cast<int64_t>(r->value);
        agg = q.variant == 0 ? agg + reads : std::max(agg, reads);
      }
      return got.size() == 1 && got.tuple(0).value(1).int64_value() == agg &&
             tag_home_.at(got.tuple(0).value(0).string_value()) == q.home;
    }
    if (got.size() != 1) return false;
    const double v = ValueOf(got.tuple(0).value(0));
    if (q.family == 2) {
      int64_t count = 0;
      for (const Row* r : members) count += r->value >= 2 + q.variant ? 1 : 0;
      return v == static_cast<double>(count);
    }
    double expected = std::nan("");
    if (!members.empty()) {
      if (q.family == 0) {
        double sum = 0;
        int64_t n = 0;
        for (const Row* r : members) {
          if (std::isnan(r->value) || !(r->value > 480 + 20 * q.variant)) {
            continue;
          }
          sum += r->value;
          ++n;
        }
        if (n > 0) expected = sum / n;
      } else {
        for (const Row* r : members) {
          if (std::isnan(r->value)) continue;
          expected = std::isnan(expected) ? r->value
                     : q.variant == 0 ? std::max(expected, r->value)
                                      : std::min(expected, r->value);
        }
      }
    }
    return Near(v, expected);
  }

  std::vector<Home> homes_;
  int64_t trace_ticks_ = 0;
  std::mt19937_64 rng_;
  std::vector<QuerySpec> queries_;
  std::vector<int> initial_subs_;
  /// Live subscriptions by registration sequence (oldest first).
  std::map<int64_t, Sub> subs_;
  std::unordered_map<std::string, int> sub_index_;
  int64_t next_sub_name_ = 0;
  std::unordered_map<std::string, int> granule_home_;
  std::unordered_map<std::string, int> tag_home_;
  std::deque<Row> sensors_, motion_, rfid_;
  std::vector<double> last_sound_;
  std::vector<int64_t> last_motion_;
  int64_t esp_hits_ = 0;
  std::array<int64_t, 3> raw_hits_;
  std::array<int64_t, 3> cleaned_hits_;
  int64_t accuracy_samples_ = 0;
  Samples churn_ms_;
  int64_t eval_ns_ = 0;
  int64_t eval_start_ = 0;
  bool eval_open_ = false;
  const Value on_ = Value::Interned("ON");
  std::unique_ptr<esp::core::EspProcessor> engine_;
  std::unique_ptr<trace::TracedEngine> traced_;
  esp::core::StreamEngine* driven_ = nullptr;
};

}  // namespace

void RunHomeServing(const RunParams& params, RunResult& out) {
  HomeServing home(params.seed);
  const double setup_s = MeasureSetup(
      kSetupRepeats, [&] { home.Teardown(); },
      [&] { return home.Build(); }, "home_serving", out);
  out.attempted += home.registrations();
  // Columnar tallies are process-wide: take the traced run's own delta.
  const esp::core::ColumnarStats columnar0 = home.engine()->Health().columnar;
  const LoopStats stats = RunRounds(home, params, kClosedTicksPerS, kOpenRateHz, out);
  if (params.trace) {
    trace::TracedEngine& traced = *home.traced();
    const int64_t serving_ns = home.eval_ns();
    ReportProcessorMetrics(traced, stats.loop_tick_ns, serving_ns, out);
    ReportStageMetrics(trace::Totals(true), stats.ticks, out);
    const esp::core::PipelineHealth health = home.engine()->Health();
    const double ticks = static_cast<double>(std::max<int64_t>(stats.ticks, 1));
    out.Metric("processor.buffered_tuples",
               static_cast<double>(home.engine()->BufferedTuples()), "tuples");
    out.Metric("processor.late_admitted",
               static_cast<double>(health.total_late_admitted), "readings");
    out.Metric("cql.columnar_vector_batches",
               (health.columnar.vector_batches - columnar0.vector_batches) / ticks,
               "batches/tick");
    out.Metric("cql.columnar_guard_fallbacks",
               (health.columnar.guard_fallbacks - columnar0.guard_fallbacks) / ticks,
               "count/tick");
    out.Metric("serving.physical_plans",
               static_cast<double>(health.queries.physical_plans), "plans");
    out.Metric("serving.shared_buffers",
               static_cast<double>(health.queries.shared_buffers), "buffers");
    out.Metric("serving.buffered_tuples",
               static_cast<double>(health.queries.buffered_tuples), "tuples");
    out.Metric("serving.evals_per_result",
               health.queries.fanout_results > 0
                   ? static_cast<double>(health.queries.plan_evals) /
                         health.queries.fanout_results
                   : 0,
               "ratio");
    out.Metric("serving.eval_ms", serving_ns / 1e6 / ticks, "ms/tick");
    Samples reg;
    for (int64_t ns : traced.register_ns()) reg.Add(ns / 1e6);
    out.Metric("serving.register_ms_p50", reg.Percentile(0.5), "ms");
    out.Metric("serving.register_ms_max", reg.Max(), "ms");
    out.Metric("serving.churn_ms_p50", home.churn_ms().Percentile(0.5), "ms");
  }
  out.Detail("homes", kHomes);
  out.Detail("subscriptions", kSubscriptions);
  out.Detail("distinct_queries", kDistinctQueries);
  out.Detail("esp_accuracy", home.esp_accuracy());
  out.Detail("best_raw_modality_accuracy", home.best_raw_accuracy());
  const char* kModalities[] = {"rfid", "sound", "motion"};
  for (int m = 0; m < 3; ++m) {
    out.Detail(std::string("raw_accuracy_") + kModalities[m], home.raw_accuracy(m));
    out.Detail(std::string("cleaned_accuracy_") + kModalities[m], home.cleaned_accuracy(m));
  }
  // The detector's own band (fig9_person_detector's sanity bound). Whether
  // fusion beats the best single modality is reported, not gated: raw RFID
  // at 5 Hz is about as accurate as the fused detector in HomeWorld, and
  // which one wins depends on the seed.
  if (home.esp_accuracy() < 0.80) {
    out.Fail("home: person detector accuracy below 0.80");
  }
  ReportEndToEnd(stats, setup_s, SelfPeakRssMb(), out);
}

}  // namespace espbench
