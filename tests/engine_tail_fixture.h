// Deployment shared by engine_tail_test.cc and the tool that wrote the
// committed checkpoint fixtures (tests/data/write_tail_checkpoints.cc). It
// uses only the engines' public configuration API, so the same code builds
// against any revision of the library.

#ifndef ESP_TESTS_ENGINE_TAIL_FIXTURE_H_
#define ESP_TESTS_ENGINE_TAIL_FIXTURE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/health.h"
#include "core/processor.h"
#include "core/stage.h"
#include "core/toolkit.h"
#include "sim/reading.h"
#include "stream/tuple.h"

namespace esp::core::tail_fixture {

inline stream::Tuple Rfid(int shelf, const std::string& tag, double t) {
  return sim::ToTuple(sim::RfidReading{"reader_" + std::to_string(shelf),
                                       tag, Timestamp::Seconds(t)});
}

/// Base of the test stages below: counts Evaluate calls, fails every
/// `fail_every`-th one, and checkpoints the count.
class CountingStage : public Stage {
 public:
  CountingStage(StageKind kind, std::string name, int fail_every)
      : Stage(kind, std::move(name)), fail_every_(fail_every) {}

  Status SaveState(ByteWriter& w) const override {
    w.WriteI64(calls_);
    return Status::OK();
  }
  Status LoadState(ByteReader& r) override {
    ESP_ASSIGN_OR_RETURN(calls_, r.ReadI64());
    return Status::OK();
  }

 protected:
  /// Counts one Evaluate; true when this one must fail.
  bool NextEvaluateFails() { return ++calls_ % fail_every_ == 0; }

 private:
  int fail_every_;
  int64_t calls_ = 0;
};

/// An Arbitrate stage that passes its input through and fails every
/// `fail_every`-th Evaluate — health_test.cc's FlakySmooth as Arbitrate.
/// Its output schema equals its input schema, so kDegrade passes tuples
/// through.
inline StageFactory FlakyArbitrate(int fail_every) {
  class Flaky : public CountingStage {
   public:
    explicit Flaky(int fail_every)
        : CountingStage(StageKind::kArbitrate, "flaky_arbitrate",
                        fail_every) {}
    Status Bind(const cql::SchemaCatalog& inputs) override {
      ESP_ASSIGN_OR_RETURN(output_schema_,
                           inputs.Find(StageInputName(StageKind::kArbitrate)));
      return Status::OK();
    }
    Status Push(const std::string&, stream::Tuple tuple) override {
      buffer_.push_back(std::move(tuple));
      return Status::OK();
    }
    StatusOr<stream::Relation> Evaluate(Timestamp) override {
      std::vector<stream::Tuple> tuples = std::move(buffer_);
      buffer_.clear();
      if (NextEvaluateFails()) {
        return Status::Internal("flaky arbitrate failure");
      }
      stream::Relation out(output_schema_);
      for (stream::Tuple& tuple : tuples) out.Add(std::move(tuple));
      return out;
    }

   private:
    std::vector<stream::Tuple> buffer_;
  };
  return [fail_every]() -> StatusOr<std::unique_ptr<Stage>> {
    return std::unique_ptr<Stage>(new Flaky(fail_every));
  };
}

/// A Virtualize stage over "rfid_input" that emits how many rows it was fed
/// this tick, rejects any row whose tag is "poison", and fails every
/// `fail_every`-th Evaluate.
inline std::unique_ptr<Stage> TallyVirtualize(int fail_every) {
  class Tally : public CountingStage {
   public:
    explicit Tally(int fail_every)
        : CountingStage(StageKind::kVirtualize, "tally", fail_every) {}
    Status Bind(const cql::SchemaCatalog&) override {
      output_schema_ = stream::MakeSchema({{"n", stream::DataType::kInt64}});
      return Status::OK();
    }
    Status Push(const std::string&, stream::Tuple tuple) override {
      ESP_ASSIGN_OR_RETURN(const stream::Value tag, tuple.Get("tag_id"));
      if (tag.string_value() == "poison") {
        return Status::InvalidArgument("poisoned reading");
      }
      ++fed_;
      return Status::OK();
    }
    StatusOr<stream::Relation> Evaluate(Timestamp now) override {
      const int64_t fed = fed_;
      fed_ = 0;
      if (NextEvaluateFails()) return Status::Internal("tally failure");
      stream::Relation out(output_schema_);
      out.Add(stream::Tuple(output_schema_, {stream::Value::Int64(fed)}, now));
      return out;
    }

   private:
    int64_t fed_ = 0;  // Zero between ticks.
  };
  return std::make_unique<Tally>(fail_every);
}

/// Configures `engine` (EspProcessor, ShardedEspProcessor, or
/// ClusterCoordinator) with `shelves` single-reader proximity groups, the
/// paper's Smooth, the given Arbitrate, and TallyVirtualize. Does not
/// Start().
template <typename Engine>
Status ConfigureShelves(Engine& engine, int shelves, StageFactory arbitrate,
                        int virtualize_fail_every, HealthPolicy policy = {}) {
  for (int s = 0; s < shelves; ++s) {
    ESP_RETURN_IF_ERROR(engine.AddProximityGroup(
        {"pg_shelf" + std::to_string(s), "rfid",
         SpatialGranule{"shelf_" + std::to_string(s)},
         {"reader_" + std::to_string(s)}}));
  }
  DeviceTypePipeline pipeline;
  pipeline.device_type = "rfid";
  pipeline.reading_schema = sim::RfidReadingSchema();
  pipeline.receptor_id_column = "reader_id";
  pipeline.smooth =
      SmoothPresenceCount(TemporalGranule(Duration::Seconds(5)), "tag_id");
  pipeline.arbitrate = std::move(arbitrate);
  ESP_RETURN_IF_ERROR(engine.AddPipeline(std::move(pipeline)));
  ESP_RETURN_IF_ERROR(engine.SetHealthPolicy(policy));
  engine.SetVirtualize(TallyVirtualize(virtualize_fail_every));
  return Status::OK();
}

/// Tick `t`'s readings: every shelf reads its own two tags, shelf t % n
/// also reads its neighbour's (a conflict for Arbitrate), and on every
/// fourth tick from tick 3 shelf 1 reads a "poison" tag the Virtualize
/// stage rejects.
inline std::vector<stream::Tuple> ShelfReadings(int shelves, int t) {
  std::vector<stream::Tuple> readings;
  for (int s = 0; s < shelves; ++s) {
    for (int k = 0; k < 2; ++k) {
      readings.push_back(
          Rfid(s, "tag_" + std::to_string(s) + "_" + std::to_string(k), t));
    }
  }
  const int cross = t % shelves;
  readings.push_back(
      Rfid(cross, "tag_" + std::to_string((cross + 1) % shelves) + "_0", t));
  if (t % 4 == 3) readings.push_back(Rfid(1, "poison", t));
  return readings;
}

/// The checkpoint-fixture deployment: four shelves, the paper's Query 3
/// Arbitrate, TallyVirtualize failing every fourth Evaluate, and one
/// standing subscription, registered after StartFixtureDeployment().
constexpr int kFixtureShelves = 4;
constexpr int kFixtureVirtualizeFailEvery = 4;
/// Ticks run before the committed snapshots were taken.
constexpr int kFixtureTicks = 6;
constexpr const char* kFixtureQuery =
    "SELECT count(*) AS n FROM rfid_input [Range By '10 sec']";

template <typename Engine>
Status StartFixtureDeployment(Engine& engine) {
  ESP_RETURN_IF_ERROR(ConfigureShelves(engine, kFixtureShelves,
                                       ArbitrateMaxCount("tag_id", "reads"),
                                       kFixtureVirtualizeFailEvery));
  return engine.Start();
}

}  // namespace esp::core::tail_fixture

#endif  // ESP_TESTS_ENGINE_TAIL_FIXTURE_H_
