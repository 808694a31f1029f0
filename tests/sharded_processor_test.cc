// The sharded engine's whole contract is bitwise equivalence: a
// ShardedEspProcessor over any shard count must produce byte-identical
// tick outputs, health, and checkpoints-compatible behaviour to a single
// EspProcessor fed the same stream. These tests drive matched deployments
// through clean, faulty, and crash-recovered runs and compare fingerprints.

#include "core/sharded_processor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/recovery.h"
#include "core/toolkit.h"
#include "sim/fault_injector.h"
#include "sim/reading.h"
#include "stream/serialize.h"

namespace esp::core {
namespace {

using sim::FaultInjector;
using sim::FaultInjectorConfig;
using stream::Relation;
using stream::Tuple;

Tuple Rfid(const std::string& reader, const std::string& tag, double t) {
  return sim::ToTuple(sim::RfidReading{reader, tag, Timestamp::Seconds(t)});
}

/// Configures `engine` (EspProcessor or ShardedEspProcessor — the builder
/// APIs are identical) with `num_shelves` single-reader proximity groups
/// and the paper's Smooth + Arbitrate shelf pipeline. Does not Start().
template <typename Engine>
Status ConfigureShelves(Engine& engine, int num_shelves,
                        int readers_per_shelf = 1) {
  for (int s = 0; s < num_shelves; ++s) {
    ProximityGroup group;
    group.id = "pg_shelf" + std::to_string(s);
    group.device_type = "rfid";
    group.granule = SpatialGranule{"shelf_" + std::to_string(s)};
    for (int r = 0; r < readers_per_shelf; ++r) {
      group.receptor_ids.push_back("reader_" + std::to_string(s) + "_" +
                                   std::to_string(r));
    }
    ESP_RETURN_IF_ERROR(engine.AddProximityGroup(std::move(group)));
  }
  DeviceTypePipeline pipeline;
  pipeline.device_type = "rfid";
  pipeline.reading_schema = sim::RfidReadingSchema();
  pipeline.receptor_id_column = "reader_id";
  pipeline.smooth =
      SmoothPresenceCount(TemporalGranule(Duration::Seconds(5)), "tag_id");
  pipeline.arbitrate = ArbitrateMaxCount("tag_id", "reads");
  return engine.AddPipeline(std::move(pipeline));
}

/// Deterministic synthetic workload: every tick each reader reads a few
/// tags, with seeded cross-reads so Arbitrate has real conflicts to
/// resolve.
std::vector<Tuple> TickReadings(int num_shelves, int readers_per_shelf,
                                int tick, Rng& rng) {
  std::vector<Tuple> readings;
  for (int s = 0; s < num_shelves; ++s) {
    for (int r = 0; r < readers_per_shelf; ++r) {
      const std::string reader =
          "reader_" + std::to_string(s) + "_" + std::to_string(r);
      const int reads = 1 + static_cast<int>(rng.NextUint64() % 3);
      for (int i = 0; i < reads; ++i) {
        // Mostly own-shelf tags, occasionally the neighbour's (cross-read).
        int tag_shelf = s;
        if (rng.NextDouble() < 0.2) tag_shelf = (s + 1) % num_shelves;
        const std::string tag = "tag_" + std::to_string(tag_shelf) + "_" +
                                std::to_string(rng.NextUint64() % 4);
        readings.push_back(Rfid(reader, tag, tick));
      }
    }
  }
  return readings;
}

/// Canonical bytes of a tick's outputs, for bitwise equality checks.
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
  return w.data();
}

/// Canonical bytes of a health snapshot (order included — the sharded
/// engine must report receptors and stage errors in the single processor's
/// order).
std::string Fingerprint(const PipelineHealth& health) {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(health.receptors.size()));
  for (const ReceptorHealth& r : health.receptors) {
    w.WriteString(r.receptor_id);
    w.WriteString(r.device_type);
    w.WriteU8(static_cast<uint8_t>(r.state));
    w.WriteI64(r.delivered);
    w.WriteI64(r.late_admitted);
    w.WriteI64(r.dropped_late);
    w.WriteI64(r.dropped_quarantined);
    w.WriteI64(r.quarantine_count);
    w.WriteI64(r.revival_count);
  }
  w.WriteU32(static_cast<uint32_t>(health.stage_errors.size()));
  for (const StageErrorStat& stat : health.stage_errors) {
    w.WriteString(stat.stage);
    w.WriteI64(stat.errors);
    w.WriteString(stat.last_message);
  }
  w.WriteI64(health.total_stage_errors);
  w.WriteI64(health.total_late_admitted);
  w.WriteI64(health.total_dropped_late);
  w.WriteI64(health.total_dropped_quarantined);
  w.WriteU64(health.quarantined_now);
  w.WriteU64(health.suspect_now);
  return w.data();
}

class ShardCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardCountTest, MatchesSingleProcessorBitwise) {
  for (const uint64_t seed : {1ull, 42ull, 987654321ull}) {
    EspProcessor single;
    ASSERT_TRUE(ConfigureShelves(single, 12).ok());
    ASSERT_TRUE(single.Start().ok());

    ShardedEspProcessor sharded({.num_shards = GetParam()});
    ASSERT_TRUE(ConfigureShelves(sharded, 12).ok());
    ASSERT_TRUE(sharded.Start().ok());
    ASSERT_EQ(sharded.num_shards(), GetParam());

    Rng rng(seed);
    for (int t = 0; t < 60; ++t) {
      for (const Tuple& reading : TickReadings(12, 1, t, rng)) {
        ASSERT_TRUE(single.Push("rfid", reading).ok());
        ASSERT_TRUE(sharded.Push("rfid", reading).ok());
      }
      auto expected = single.Tick(Timestamp::Seconds(t));
      auto actual = sharded.Tick(Timestamp::Seconds(t));
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(actual.ok()) << actual.status();
      ASSERT_EQ(Fingerprint(*expected), Fingerprint(*actual))
          << "seed=" << seed << " shards=" << GetParam() << " tick=" << t;
    }
    EXPECT_EQ(Fingerprint(single.Health()), Fingerprint(sharded.Health()));
    EXPECT_EQ(single.BufferedTuples(), sharded.BufferedTuples());
  }
}

TEST_P(ShardCountTest, MatchesSingleUnderInjectedFaults) {
  // Reordering, duplication, death, and clock skew — with a lateness
  // horizon and liveness thresholds so the watermark and quarantine
  // machinery runs on both engines.
  EspProcessor single;
  ShardedEspProcessor sharded({.num_shards = GetParam()});
  HealthPolicy policy;
  policy.lateness_horizon = Duration::Seconds(2);
  policy.staleness_threshold = Duration::Seconds(6);
  policy.quarantine_timeout = Duration::Seconds(10);
  policy.revival_backoff = Duration::Seconds(4);
  {
    const int shelves = 9;
    ASSERT_TRUE(single.SetHealthPolicy(policy).ok());
    ASSERT_TRUE(ConfigureShelves(single, shelves).ok());
    ASSERT_TRUE(single.Start().ok());
    ASSERT_TRUE(sharded.SetHealthPolicy(policy).ok());
    ASSERT_TRUE(ConfigureShelves(sharded, shelves).ok());
    ASSERT_TRUE(sharded.Start().ok());

    std::vector<std::string> receptor_ids;
    for (int s = 0; s < shelves; ++s) {
      receptor_ids.push_back("reader_" + std::to_string(s) + "_0");
    }
    FaultInjectorConfig faults;
    faults.seed = 7;
    faults.horizon = Duration::Seconds(80);
    faults.death_fraction = 0.25;
    faults.revive_after = Duration::Seconds(25);
    faults.duplicate_prob = 0.05;
    faults.reorder_prob = 0.2;
    faults.max_reorder_delay = Duration::Seconds(1);
    FaultInjector injector(faults, receptor_ids);

    Rng rng(99);
    for (int t = 0; t < 80; ++t) {
      for (Tuple& reading : TickReadings(shelves, 1, t, rng)) {
        const std::string reader =
            reading.Get("reader_id")->string_value();
        for (FaultInjector::Event& event :
             injector.Process({reader, std::move(reading)})) {
          const Status a = single.Push("rfid", event.tuple);
          const Status b = sharded.Push("rfid", std::move(event.tuple));
          // Both engines must hand down the same verdict (e.g. kOutOfRange
          // for beyond-horizon stragglers).
          ASSERT_EQ(a.ToString(), b.ToString());
        }
      }
      auto expected = single.Tick(Timestamp::Seconds(t));
      auto actual = sharded.Tick(Timestamp::Seconds(t));
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(actual.ok()) << actual.status();
      ASSERT_EQ(Fingerprint(*expected), Fingerprint(*actual)) << "t=" << t;
    }
    // The fault mix must have actually exercised the degraded paths.
    const PipelineHealth reference = single.Health();
    EXPECT_GT(reference.total_dropped_late + reference.total_late_admitted,
              0);
    EXPECT_GT(reference.total_dropped_quarantined, 0);
    EXPECT_EQ(Fingerprint(reference), Fingerprint(sharded.Health()));
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardCountTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ShardedEspProcessorTest, MoreShardsThanGroupsIdlesTheSurplus) {
  EspProcessor single;
  ASSERT_TRUE(ConfigureShelves(single, 3).ok());
  ASSERT_TRUE(single.Start().ok());
  ShardedEspProcessor sharded({.num_shards = 8});
  ASSERT_TRUE(ConfigureShelves(sharded, 3).ok());
  ASSERT_TRUE(sharded.Start().ok());

  for (int t = 0; t < 20; ++t) {
    for (int s = 0; s < 3; ++s) {
      const std::string reader = "reader_" + std::to_string(s) + "_0";
      const Tuple reading = Rfid(reader, "tag_" + std::to_string(t % 3), t);
      ASSERT_TRUE(single.Push("rfid", reading).ok());
      ASSERT_TRUE(sharded.Push("rfid", reading).ok());
    }
    auto expected = single.Tick(Timestamp::Seconds(t));
    auto actual = sharded.Tick(Timestamp::Seconds(t));
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(Fingerprint(*expected), Fingerprint(*actual));
  }
}

TEST(ShardedEspProcessorTest, PushVerdictsMatchSingleProcessor) {
  EspProcessor single;
  ASSERT_TRUE(ConfigureShelves(single, 4).ok());
  ASSERT_TRUE(single.Start().ok());
  ShardedEspProcessor sharded({.num_shards = 2});
  ASSERT_TRUE(ConfigureShelves(sharded, 4).ok());
  ASSERT_TRUE(sharded.Start().ok());

  // Unknown device type.
  Status a = single.Push("sonar", Rfid("reader_0_0", "x", 0));
  Status b = sharded.Push("sonar", Rfid("reader_0_0", "x", 0));
  EXPECT_EQ(a.code(), StatusCode::kNotFound);
  EXPECT_EQ(a.ToString(), b.ToString());

  // Unknown receptor.
  a = single.Push("rfid", Rfid("reader_99_0", "x", 0));
  b = sharded.Push("rfid", Rfid("reader_99_0", "x", 0));
  EXPECT_EQ(a.code(), StatusCode::kNotFound);
  EXPECT_EQ(a.ToString(), b.ToString());

  // Wrong schema.
  const auto bad_schema = stream::MakeSchema(
      {{"something", stream::DataType::kDouble}});
  const Tuple bad(bad_schema, {stream::Value::Double(1.0)},
                  Timestamp::Seconds(0));
  a = single.Push("rfid", bad);
  b = sharded.Push("rfid", bad);
  EXPECT_EQ(a.code(), StatusCode::kTypeError);
  EXPECT_EQ(a.ToString(), b.ToString());

  // Case-insensitive receptor routing still works.
  EXPECT_TRUE(sharded.Push("rfid", Rfid("READER_2_0", "x", 0)).ok());
}

TEST(ShardedEspProcessorTest, CheckpointRestoreResumesIdentically) {
  // Reference: an unsharded processor running the full stream.
  EspProcessor single;
  ASSERT_TRUE(ConfigureShelves(single, 6).ok());
  ASSERT_TRUE(single.Start().ok());

  ShardedEspProcessor original({.num_shards = 3});
  ASSERT_TRUE(ConfigureShelves(original, 6).ok());
  ASSERT_TRUE(original.Start().ok());

  Rng rng(2024);
  int t = 0;
  for (; t < 30; ++t) {
    for (const Tuple& reading : TickReadings(6, 1, t, rng)) {
      ASSERT_TRUE(single.Push("rfid", reading).ok());
      ASSERT_TRUE(original.Push("rfid", reading).ok());
    }
    ASSERT_TRUE(single.Tick(Timestamp::Seconds(t)).ok());
    ASSERT_TRUE(original.Tick(Timestamp::Seconds(t)).ok());
  }

  // Snapshot mid-run and restore into a freshly built sharded engine.
  CheckpointWriter snapshot;
  ASSERT_TRUE(original.Checkpoint(snapshot).ok());
  const std::string bytes = snapshot.Serialize();

  ShardedEspProcessor restored({.num_shards = 3});
  ASSERT_TRUE(ConfigureShelves(restored, 6).ok());
  ASSERT_TRUE(restored.Start().ok());
  auto reader = CheckpointReader::Parse(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(restored.Restore(*reader).ok());
  EXPECT_TRUE(restored.has_ticked());
  EXPECT_EQ(restored.last_tick(), Timestamp::Seconds(t - 1));

  // Both sharded engines and the reference must stay in lockstep.
  for (; t < 50; ++t) {
    for (const Tuple& reading : TickReadings(6, 1, t, rng)) {
      ASSERT_TRUE(single.Push("rfid", reading).ok());
      ASSERT_TRUE(original.Push("rfid", reading).ok());
      ASSERT_TRUE(restored.Push("rfid", reading).ok());
    }
    auto expected = single.Tick(Timestamp::Seconds(t));
    auto from_original = original.Tick(Timestamp::Seconds(t));
    auto from_restored = restored.Tick(Timestamp::Seconds(t));
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(from_original.ok());
    ASSERT_TRUE(from_restored.ok());
    ASSERT_EQ(Fingerprint(*expected), Fingerprint(*from_original));
    ASSERT_EQ(Fingerprint(*from_original), Fingerprint(*from_restored));
  }
  EXPECT_EQ(Fingerprint(original.Health()), Fingerprint(restored.Health()));
}

TEST(ShardedEspProcessorTest, RestoreRejectsDifferentShardCount) {
  ShardedEspProcessor two({.num_shards = 2});
  ASSERT_TRUE(ConfigureShelves(two, 4).ok());
  ASSERT_TRUE(two.Start().ok());
  CheckpointWriter snapshot;
  ASSERT_TRUE(two.Checkpoint(snapshot).ok());

  ShardedEspProcessor three({.num_shards = 3});
  ASSERT_TRUE(ConfigureShelves(three, 4).ok());
  ASSERT_TRUE(three.Start().ok());
  auto reader = CheckpointReader::Parse(snapshot.Serialize());
  ASSERT_TRUE(reader.ok());
  const Status restored = three.Restore(*reader);
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument);
}

TEST(ShardedEspProcessorTest, RecoveryCoordinatorReplaysShardedRun) {
  const std::string dir =
      ::testing::TempDir() + "/sharded_recovery_replay";
  std::remove((dir + "/journal.wal").c_str());

  RecoveryOptions options;
  options.directory = dir;
  options.checkpoint_interval_ticks = 7;
  options.fsync = false;

  std::vector<std::string> live_fingerprints;
  {
    ShardedEspProcessor engine({.num_shards = 2});
    ASSERT_TRUE(ConfigureShelves(engine, 4).ok());
    ASSERT_TRUE(engine.Start().ok());
    auto coordinator = RecoveryCoordinator::Start(&engine, options);
    ASSERT_TRUE(coordinator.ok()) << coordinator.status();

    Rng rng(77);
    for (int t = 0; t < 20; ++t) {
      for (const Tuple& reading : TickReadings(4, 1, t, rng)) {
        ASSERT_TRUE((*coordinator)->Push("rfid", reading).ok());
      }
      auto result = (*coordinator)->Tick(Timestamp::Seconds(t));
      ASSERT_TRUE(result.ok()) << result.status();
      live_fingerprints.push_back(Fingerprint(*result));
    }
    // Crash: the coordinator is dropped without a final checkpoint.
  }

  ShardedEspProcessor recovered({.num_shards = 2});
  ASSERT_TRUE(ConfigureShelves(recovered, 4).ok());
  ASSERT_TRUE(recovered.Start().ok());
  RestoreReport report;
  std::vector<std::string> replayed_fingerprints;
  auto resumed = RecoveryCoordinator::Resume(
      &recovered, options, &report,
      [&](Timestamp, const TickResult& result) {
        replayed_fingerprints.push_back(Fingerprint(result));
        return Status::OK();
      });
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(report.from_snapshot);

  // Replayed ticks must recompute the pre-crash outputs byte-for-byte.
  ASSERT_LE(replayed_fingerprints.size(), live_fingerprints.size());
  const size_t offset = live_fingerprints.size() - replayed_fingerprints.size();
  for (size_t i = 0; i < replayed_fingerprints.size(); ++i) {
    EXPECT_EQ(replayed_fingerprints[i], live_fingerprints[offset + i])
        << "replayed tick " << i;
  }

  // And the recovered engine continues identically to a never-crashed one.
  EspProcessor reference;
  ASSERT_TRUE(ConfigureShelves(reference, 4).ok());
  ASSERT_TRUE(reference.Start().ok());
  Rng rng(77);
  for (int t = 0; t < 20; ++t) {
    for (const Tuple& reading : TickReadings(4, 1, t, rng)) {
      ASSERT_TRUE(reference.Push("rfid", reading).ok());
    }
    ASSERT_TRUE(reference.Tick(Timestamp::Seconds(t)).ok());
  }
  Rng rng2(123);
  for (int t = 20; t < 30; ++t) {
    for (const Tuple& reading : TickReadings(4, 1, t, rng2)) {
      ASSERT_TRUE(reference.Push("rfid", reading).ok());
      ASSERT_TRUE((*resumed)->Push("rfid", reading).ok());
    }
    auto expected = reference.Tick(Timestamp::Seconds(t));
    auto actual = (*resumed)->Tick(Timestamp::Seconds(t));
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(Fingerprint(*expected), Fingerprint(*actual));
  }
}

TEST(ShardedEspProcessorTest, ZeroShardsIsRejected) {
  ShardedEspProcessor engine({.num_shards = 0});
  ASSERT_TRUE(ConfigureShelves(engine, 2).ok());
  EXPECT_EQ(engine.Start().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedEspProcessorTest, SharedExternalPool) {
  // Several engines can tick on one caller-owned pool.
  ThreadPool pool(2);
  ShardedEspProcessor sharded({.num_shards = 4, .pool = &pool});
  ASSERT_TRUE(ConfigureShelves(sharded, 8).ok());
  ASSERT_TRUE(sharded.Start().ok());
  EspProcessor single;
  ASSERT_TRUE(ConfigureShelves(single, 8).ok());
  ASSERT_TRUE(single.Start().ok());

  Rng rng(3);
  for (int t = 0; t < 15; ++t) {
    for (const Tuple& reading : TickReadings(8, 1, t, rng)) {
      ASSERT_TRUE(single.Push("rfid", reading).ok());
      ASSERT_TRUE(sharded.Push("rfid", reading).ok());
    }
    auto expected = single.Tick(Timestamp::Seconds(t));
    auto actual = sharded.Tick(Timestamp::Seconds(t));
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(Fingerprint(*expected), Fingerprint(*actual));
  }
}

}  // namespace
}  // namespace esp::core
