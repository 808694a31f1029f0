// Every engine hands its post-Merge relations to one EngineTail, so the
// monolith, the sharded engine at any shard count, and the cluster must
// agree on everything after Merge: the cross-group Union order, stage
// errors in Arbitrate and Virtualize, and the checkpoint bytes of the
// tail's stages (pinned by snapshots written before the tail was shared).

#include "core/engine_tail.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/supervisor.h"
#include "core/checkpoint.h"
#include "core/processor.h"
#include "core/sharded_processor.h"
#include "engine_tail_fixture.h"
#include "stream/serialize.h"

namespace esp::core {
namespace {

using stream::Tuple;
using tail_fixture::Rfid;

/// Canonical bytes of a tick's outputs, standing-query results included.
std::string Fingerprint(const TickResult& result) {
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
  w.WriteU32(static_cast<uint32_t>(result.query_results.size()));
  for (const cql::SubscriptionResult& sub : result.query_results) {
    w.WriteString(sub.name);
    w.WriteString(sub.status.ToString());
    if (sub.result == nullptr) continue;
    for (const Tuple& tuple : sub.result->tuples()) {
      stream::WriteTuple(w, tuple);
    }
  }
  return w.data();
}

/// Canonical bytes of the stage-error and receptor parts of Health().
std::string Fingerprint(const PipelineHealth& health) {
  ByteWriter w;
  w.WriteI64(health.total_stage_errors);
  for (const StageErrorStat& stat : health.stage_errors) {
    w.WriteString(stat.stage);
    w.WriteI64(stat.errors);
    w.WriteString(stat.last_message);
  }
  for (const ReceptorHealth& r : health.receptors) {
    w.WriteString(r.receptor_id);
    w.WriteI64(r.delivered);
    w.WriteString(r.last_error);
  }
  return w.data();
}

/// What one engine did with a script: a fingerprint per completed tick,
/// and the first failed tick's status (OK when none failed).
struct ScriptRun {
  std::vector<std::string> ticks;
  Status failure;
};

using Readings = std::function<std::vector<Tuple>(int tick)>;

/// Pushes each tick's readings and ticks at `tick_time(t)`; stops at the
/// first failed tick.
template <typename Engine>
ScriptRun Drive(Engine& engine, int ticks, const Readings& readings,
                const std::function<Timestamp(int)>& tick_time) {
  ScriptRun run;
  for (int t = 0; t < ticks; ++t) {
    for (const Tuple& reading : readings(t)) {
      EXPECT_TRUE(engine.Push("rfid", reading).ok()) << "t=" << t;
    }
    StatusOr<TickResult> result = engine.Tick(tick_time(t));
    if (!result.ok()) {
      run.failure = result.status();
      break;
    }
    run.ticks.push_back(Fingerprint(*result));
  }
  return run;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  const std::string cmd = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

/// A 2-worker cluster over fresh storage, configured by `configure`.
StatusOr<std::unique_ptr<cluster::ClusterCoordinator>> StartCluster(
    const std::string& name, cluster::WorkerSupervisor* supervisor,
    const std::function<Status(cluster::ClusterCoordinator&)>& configure) {
  cluster::ClusterOptions options;
  options.num_workers = 2;
  options.storage_root = FreshDir(name);
  options.fsync = false;
  auto coordinator = std::make_unique<cluster::ClusterCoordinator>(options);
  ESP_RETURN_IF_ERROR(configure(*coordinator));
  ESP_RETURN_IF_ERROR(coordinator->Start(supervisor));
  return coordinator;
}

// --- The cross-group Union ------------------------------------------------

/// Four single-reader groups and a pipeline of pass-through stages: a CQL
/// stage stamps its output with the tick time, so without one each group's
/// rows keep their sub-tick timestamps and only the Union orders them
/// across groups.
template <typename Engine>
Status ConfigurePassThrough(Engine& engine) {
  for (int g = 0; g < 4; ++g) {
    ESP_RETURN_IF_ERROR(engine.AddProximityGroup(
        {"pg_" + std::to_string(g), "rfid",
         SpatialGranule{"shelf_" + std::to_string(g)},
         {"reader_" + std::to_string(g)}}));
  }
  DeviceTypePipeline pipeline;
  pipeline.device_type = "rfid";
  pipeline.reading_schema = sim::RfidReadingSchema();
  pipeline.receptor_id_column = "reader_id";
  return engine.AddPipeline(std::move(pipeline));
}

/// Group g reads at distinct offsets within tick t's interval (t, t + 1],
/// out of group order.
std::vector<Tuple> SubTickReadings(int t) {
  static constexpr double kOffsets[4] = {0.7, 0.3, 0.9, 0.1};
  std::vector<Tuple> readings;
  for (int g = 0; g < 4; ++g) {
    readings.push_back(Rfid(g, "a", t + kOffsets[g]));
    readings.push_back(Rfid(g, "b", t + kOffsets[g] + 0.05));
  }
  return readings;
}

Timestamp NextSecond(int t) { return Timestamp::Seconds(t + 1); }

TEST(EngineTailTest, UnionOrderMatchesTheMonolithInEveryEngine) {
  constexpr int kTicks = 6;
  EspProcessor monolith;
  ASSERT_TRUE(ConfigurePassThrough(monolith).ok());
  ASSERT_TRUE(monolith.Start().ok());
  const ScriptRun golden = Drive(monolith, kTicks, SubTickReadings, NextSecond);
  ASSERT_TRUE(golden.failure.ok()) << golden.failure;
  ASSERT_EQ(golden.ticks.size(), static_cast<size_t>(kTicks));

  for (size_t shards = 1; shards <= 3; ++shards) {
    ShardedEspProcessor sharded({.num_shards = shards});
    ASSERT_TRUE(ConfigurePassThrough(sharded).ok());
    ASSERT_TRUE(sharded.Start().ok());
    const ScriptRun run = Drive(sharded, kTicks, SubTickReadings, NextSecond);
    ASSERT_TRUE(run.failure.ok()) << run.failure;
    EXPECT_EQ(run.ticks, golden.ticks) << shards << " shards";
  }

  cluster::ForkWorkerSupervisor supervisor;
  auto cluster = StartCluster(
      "tail_union_order", &supervisor,
      [](cluster::ClusterCoordinator& c) { return ConfigurePassThrough(c); });
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const ScriptRun run = Drive(**cluster, kTicks, SubTickReadings, NextSecond);
  ASSERT_TRUE(run.failure.ok()) << run.failure;
  EXPECT_EQ(run.ticks, golden.ticks) << "cluster";
  EXPECT_TRUE((*cluster)->Stop().ok());
}

// --- Group-partial export: an engine that stops after Merge ---------------

/// Device types of the export deployment, in registration order.
constexpr const char* kExportTypes[2] = {"rfid", "dock"};
constexpr int kExportGroups = 3;

std::string ExportReceptor(int type, int group) {
  return std::string(kExportTypes[type]) + "_reader_" + std::to_string(group);
}

/// Two device types whose groups register interleaved, each with the
/// paper's Smooth and Query 3 Arbitrate, plus TallyVirtualize: an exporting
/// engine must run none of the tail.
template <typename Engine>
Status ConfigureTwoTypes(Engine& engine) {
  for (int g = 0; g < kExportGroups; ++g) {
    for (int type = 0; type < 2; ++type) {
      ESP_RETURN_IF_ERROR(engine.AddProximityGroup(
          {std::string(kExportTypes[type]) + "_pg" + std::to_string(g),
           kExportTypes[type], SpatialGranule{"shelf_" + std::to_string(g)},
           {ExportReceptor(type, g)}}));
    }
  }
  for (int type = 0; type < 2; ++type) {
    DeviceTypePipeline pipeline;
    pipeline.device_type = kExportTypes[type];
    pipeline.reading_schema = sim::RfidReadingSchema();
    pipeline.receptor_id_column = "reader_id";
    pipeline.smooth =
        SmoothPresenceCount(TemporalGranule(Duration::Seconds(5)), "tag_id");
    pipeline.arbitrate = ArbitrateMaxCount("tag_id", "reads");
    ESP_RETURN_IF_ERROR(engine.AddPipeline(std::move(pipeline)));
  }
  engine.SetVirtualize(tail_fixture::TallyVirtualize(1000));
  ESP_RETURN_IF_ERROR(engine.Start());
  return engine.RegisterQuery("tenant", "count", tail_fixture::kFixtureQuery);
}

/// Pushes tick t's readings: each group reads its own tag, group t % 3
/// also reads a neighbour's, at sub-tick offsets out of group order.
template <typename Engine>
void PushTwoTypes(Engine& engine, int t) {
  for (int type = 0; type < 2; ++type) {
    for (int g = 0; g < kExportGroups; ++g) {
      const double at = t + 0.1 * (kExportGroups - g);
      EXPECT_TRUE(engine
                      .Push(kExportTypes[type],
                            sim::ToTuple(sim::RfidReading{
                                ExportReceptor(type, g),
                                "tag_" + std::to_string(g),
                                Timestamp::Seconds(at)}))
                      .ok());
      if (t % kExportGroups == g) {
        EXPECT_TRUE(engine
                        .Push(kExportTypes[type],
                              sim::ToTuple(sim::RfidReading{
                                  ExportReceptor(type, g),
                                  "tag_" + std::to_string((g + 1) %
                                                          kExportGroups),
                                  Timestamp::Seconds(at + 0.05)}))
                        .ok());
      }
    }
  }
}

/// Canonical bytes of one group's partial: names, schema and tuples.
std::string PartialBytes(const std::string& type, const std::string& group,
                         const stream::Relation& relation) {
  ByteWriter w;
  w.WriteString(type);
  w.WriteString(group);
  stream::WriteSchema(w, *relation.schema());
  w.WriteU32(static_cast<uint32_t>(relation.size()));
  for (const Tuple& tuple : relation.tuples()) stream::WriteTuple(w, tuple);
  return w.data();
}

std::vector<std::string> PartialBytes(const TickResult& result) {
  std::vector<std::string> bytes;
  for (const GroupPartial& partial : result.group_partials) {
    bytes.push_back(
        PartialBytes(partial.device_type, partial.group_id, partial.relation));
  }
  return bytes;
}

TEST(EngineTailTest, ExportingEnginesStopAfterMerge) {
  constexpr int kTicks = 8;
  // The reference: a monolith's post-Merge relations, in (type, group)
  // registration order.
  EspProcessor monolith;
  ASSERT_TRUE(ConfigureTwoTypes(monolith).ok());
  std::vector<std::vector<std::string>> golden;
  for (int t = 0; t < kTicks; ++t) {
    PushTwoTypes(monolith, t);
    StatusOr<MergedGroups> groups = monolith.TickGroups(Timestamp::Seconds(t));
    ASSERT_TRUE(groups.ok()) << groups.status();
    ASSERT_EQ(groups->size(), 2u);
    std::vector<std::string> tick;
    for (int type = 0; type < 2; ++type) {
      ASSERT_EQ((*groups)[type].size(), static_cast<size_t>(kExportGroups));
      for (int g = 0; g < kExportGroups; ++g) {
        tick.push_back(PartialBytes(
            kExportTypes[type],
            std::string(kExportTypes[type]) + "_pg" + std::to_string(g),
            (*groups)[type][g]));
      }
    }
    golden.push_back(std::move(tick));
  }

  const auto check = [&](StreamEngine& engine, const std::string& label,
                         const std::function<void(int)>& push) {
    engine.SetExportGroupPartials(true);
    for (int t = 0; t < kTicks; ++t) {
      push(t);
      StatusOr<TickResult> result = engine.Tick(Timestamp::Seconds(t));
      ASSERT_TRUE(result.ok()) << label << ": " << result.status();
      EXPECT_EQ(PartialBytes(*result), golden[t]) << label << " t=" << t;
      EXPECT_TRUE(result->per_type.empty()) << label;
      EXPECT_FALSE(result->virtualized.has_value()) << label;
      EXPECT_TRUE(result->query_results.empty()) << label;
    }
  };

  EspProcessor exporting;
  ASSERT_TRUE(ConfigureTwoTypes(exporting).ok());
  check(exporting, "monolith", [&](int t) { PushTwoTypes(exporting, t); });
  for (size_t shards = 1; shards <= 2; ++shards) {
    ShardedEspProcessor sharded({.num_shards = shards});
    ASSERT_TRUE(ConfigureTwoTypes(sharded).ok());
    check(sharded, std::to_string(shards) + " shards",
          [&](int t) { PushTwoTypes(sharded, t); });
  }
}

// --- Stage errors in the tail's stages ------------------------------------

constexpr int kShelves = 4;
constexpr int kArbitrateFailEvery = 3;
constexpr int kVirtualizeFailEvery = 5;

template <typename Engine>
Status ConfigureFlaky(Engine& engine, StageErrorPolicy on_error) {
  HealthPolicy policy;
  policy.stage_error_policy = on_error;
  return tail_fixture::ConfigureShelves(
      engine, kShelves, tail_fixture::FlakyArbitrate(kArbitrateFailEvery),
      kVirtualizeFailEvery, policy);
}

std::vector<Tuple> FlakyReadings(int t) {
  return tail_fixture::ShelfReadings(kShelves, t);
}

Timestamp AtSecond(int t) { return Timestamp::Seconds(t); }

TEST(EngineTailTest, DegradedTailStagesAgreeAcrossEngines) {
  constexpr int kTicks = 12;
  EspProcessor monolith;
  ASSERT_TRUE(ConfigureFlaky(monolith, StageErrorPolicy::kDegrade).ok());
  ASSERT_TRUE(monolith.Start().ok());
  const ScriptRun golden = Drive(monolith, kTicks, FlakyReadings, AtSecond);
  ASSERT_TRUE(golden.failure.ok()) << golden.failure;
  const PipelineHealth health = monolith.Health();
  // Every tail error path fired: Arbitrate's Evaluate, a rejected
  // Virtualize push, and Virtualize's Evaluate.
  std::vector<std::string> labels;
  for (const StageErrorStat& stat : health.stage_errors) {
    labels.push_back(stat.stage);
  }
  EXPECT_EQ(labels, (std::vector<std::string>{
                        "rfid/Arbitrate[rfid]", "rfid/Virtualize[rfid_input]",
                        "virtualize/Virtualize[virtualize]"}));

  for (size_t shards = 1; shards <= 3; ++shards) {
    ShardedEspProcessor sharded({.num_shards = shards});
    ASSERT_TRUE(ConfigureFlaky(sharded, StageErrorPolicy::kDegrade).ok());
    ASSERT_TRUE(sharded.Start().ok());
    const ScriptRun run = Drive(sharded, kTicks, FlakyReadings, AtSecond);
    ASSERT_TRUE(run.failure.ok()) << run.failure;
    EXPECT_EQ(run.ticks, golden.ticks) << shards << " shards";
    EXPECT_EQ(Fingerprint(sharded.Health()), Fingerprint(health))
        << shards << " shards";
  }

  cluster::ForkWorkerSupervisor supervisor;
  auto cluster = StartCluster(
      "tail_degrade", &supervisor, [](cluster::ClusterCoordinator& c) {
        return ConfigureFlaky(c, StageErrorPolicy::kDegrade);
      });
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const ScriptRun run = Drive(**cluster, kTicks, FlakyReadings, AtSecond);
  ASSERT_TRUE(run.failure.ok()) << run.failure;
  EXPECT_EQ(run.ticks, golden.ticks) << "cluster";
  EXPECT_EQ((*cluster)->stats().stage_errors, health.total_stage_errors);
  EXPECT_TRUE((*cluster)->Stop().ok());
}

TEST(EngineTailTest, FailFastTailStagesFailTheSameTickInEveryEngine) {
  constexpr int kTicks = 12;
  EspProcessor monolith;
  ASSERT_TRUE(ConfigureFlaky(monolith, StageErrorPolicy::kFailFast).ok());
  ASSERT_TRUE(monolith.Start().ok());
  const ScriptRun golden = Drive(monolith, kTicks, FlakyReadings, AtSecond);
  ASSERT_FALSE(golden.failure.ok());
  EXPECT_EQ(golden.ticks.size(), static_cast<size_t>(kArbitrateFailEvery - 1));

  for (size_t shards = 1; shards <= 3; ++shards) {
    ShardedEspProcessor sharded({.num_shards = shards});
    ASSERT_TRUE(ConfigureFlaky(sharded, StageErrorPolicy::kFailFast).ok());
    ASSERT_TRUE(sharded.Start().ok());
    const ScriptRun run = Drive(sharded, kTicks, FlakyReadings, AtSecond);
    EXPECT_EQ(run.ticks, golden.ticks) << shards << " shards";
    EXPECT_EQ(run.failure.ToString(), golden.failure.ToString())
        << shards << " shards";
  }

  cluster::ForkWorkerSupervisor supervisor;
  auto cluster = StartCluster(
      "tail_fail_fast", &supervisor, [](cluster::ClusterCoordinator& c) {
        return ConfigureFlaky(c, StageErrorPolicy::kFailFast);
      });
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const ScriptRun run = Drive(**cluster, kTicks, FlakyReadings, AtSecond);
  EXPECT_EQ(run.ticks, golden.ticks) << "cluster";
  EXPECT_EQ(run.failure.ToString(), golden.failure.ToString()) << "cluster";
  EXPECT_TRUE((*cluster)->Stop().ok());
}

// --- Checkpoint format ----------------------------------------------------

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(ESP_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

template <typename Engine>
std::string Snapshot(const Engine& engine) {
  CheckpointWriter out;
  EXPECT_TRUE(engine.Checkpoint(out).ok());
  return out.Serialize();
}

/// Checks one committed snapshot against `make()`-built engines: an
/// uninterrupted run writes the same bytes at the same tick, a restored
/// engine writes them back unchanged, and the restored engine's next ticks
/// match the uninterrupted run's.
template <typename Engine>
void CheckFixture(const std::string& fixture_name,
                  const std::function<std::unique_ptr<Engine>()>& make) {
  constexpr int kMoreTicks = 6;
  const std::string fixture = ReadFixture(fixture_name);
  ASSERT_FALSE(fixture.empty());
  const Readings readings = [](int t) {
    return tail_fixture::ShelfReadings(tail_fixture::kFixtureShelves, t);
  };

  std::unique_ptr<Engine> uninterrupted = make();
  ASSERT_TRUE(tail_fixture::StartFixtureDeployment(*uninterrupted).ok());
  ASSERT_TRUE(uninterrupted
                  ->RegisterQuery("tenant", "shelf_count",
                                  tail_fixture::kFixtureQuery)
                  .ok());
  const ScriptRun before =
      Drive(*uninterrupted, tail_fixture::kFixtureTicks, readings, AtSecond);
  ASSERT_TRUE(before.failure.ok()) << before.failure;
  EXPECT_EQ(Snapshot(*uninterrupted), fixture);
  const auto after_fixture = [&](int t) {
    return readings(t + tail_fixture::kFixtureTicks);
  };
  const auto after_fixture_time = [](int t) {
    return AtSecond(t + tail_fixture::kFixtureTicks);
  };
  const ScriptRun expected =
      Drive(*uninterrupted, kMoreTicks, after_fixture, after_fixture_time);
  ASSERT_TRUE(expected.failure.ok()) << expected.failure;

  std::unique_ptr<Engine> restored = make();
  ASSERT_TRUE(tail_fixture::StartFixtureDeployment(*restored).ok());
  auto reader = CheckpointReader::Parse(fixture);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(restored->Restore(*reader).ok());
  EXPECT_EQ(Snapshot(*restored), fixture);
  const ScriptRun resumed =
      Drive(*restored, kMoreTicks, after_fixture, after_fixture_time);
  ASSERT_TRUE(resumed.failure.ok()) << resumed.failure;
  EXPECT_EQ(resumed.ticks, expected.ticks);
  EXPECT_EQ(Fingerprint(restored->Health()),
            Fingerprint(uninterrupted->Health()));
}

TEST(EngineTailTest, MonolithCheckpointFixtureRoundTrips) {
  CheckFixture<EspProcessor>("tail_monolith.ckpt",
                             [] { return std::make_unique<EspProcessor>(); });
}

TEST(EngineTailTest, ShardedCheckpointFixtureRoundTrips) {
  CheckFixture<ShardedEspProcessor>("tail_sharded2.ckpt", [] {
    return std::make_unique<ShardedEspProcessor>(
        ShardedEspProcessor::Options{.num_shards = 2});
  });
}

}  // namespace
}  // namespace esp::core
