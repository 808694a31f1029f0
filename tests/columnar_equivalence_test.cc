// The columnar execution path's whole contract is bitwise equivalence: with
// stream::SetColumnarEnabled flipped either way — or mid-stream — every
// query must reproduce the row path's outputs byte for byte, including
// aggregate results over NaN, negative zero, nulls, huge integers past the
// exact-double range, and columns demoted by type drift. These tests drive
// random streams through matched query instances and compare fingerprints,
// then cross the toggle with sharding at the processor level, and
// checkpoint/restore mid-window with the mirror warm.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "core/processor.h"
#include "core/sharded_processor.h"
#include "core/toolkit.h"
#include "cql/continuous_query.h"
#include "sim/reading.h"
#include "stream/column.h"
#include "stream/serialize.h"
#include "stream/simd_kernels.h"

namespace esp::cql {
namespace {

using stream::DataType;
using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;

SchemaRef SensorSchema() {
  return stream::MakeSchema({{"g", DataType::kString},
                             {"k", DataType::kInt64},
                             {"v", DataType::kDouble}});
}

/// Canonical bytes of one evaluation: either the error text or every output
/// tuple, serialized.
std::string Fingerprint(const StatusOr<Relation>& result) {
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(result->size()));
  for (const Tuple& tuple : result->tuples()) stream::WriteTuple(w, tuple);
  return w.data();
}

/// One random reading. Exercises every columnar edge on purpose: nulls in
/// both numeric columns, NaN and -0.0 in the double column, int64 values
/// past 2^52 (the SIMD sum kernel's exactness guard), and — when `jitter`
/// is set — occasional strings in the int column, which demote the mirror
/// column to Value storage for the rest of the window's life.
Tuple RandomReading(const SchemaRef& schema, Rng& rng, Timestamp ts,
                    bool jitter) {
  Value g = Value::Interned("g" + std::to_string(rng.NextUint64() % 4));
  Value k;
  if (rng.Bernoulli(0.08)) {
    k = Value::Null();
  } else if (rng.Bernoulli(0.05)) {
    k = Value::Int64((int64_t{1} << 52) + static_cast<int64_t>(
                         rng.NextUint64() % 1000));
  } else if (jitter && rng.Bernoulli(0.05)) {
    k = Value::Interned("drift");
  } else {
    k = Value::Int64(static_cast<int64_t>(rng.NextUint64() % 10));
  }
  Value v;
  if (rng.Bernoulli(0.08)) {
    v = Value::Null();
  } else if (rng.Bernoulli(0.04)) {
    v = Value::Double(std::nan(""));
  } else if (rng.Bernoulli(0.04)) {
    v = Value::Double(-0.0);
  } else {
    v = Value::Double(rng.NextDouble() * 100.0 - 50.0);
  }
  return Tuple(schema, {std::move(g), std::move(k), std::move(v)}, ts);
}

struct QueryCase {
  const char* name;
  const char* text;
  bool jitter;  // Inject type drift into the k column.
};

const QueryCase kCases[] = {
    {"scalar_double_aggs",
     "SELECT count(*) AS n, sum(v) AS s, avg(v) AS a, min(v) AS lo, "
     "max(v) AS hi FROM s [Range By '4 sec'] WHERE v < 25.0",
     false},
    {"scalar_int_aggs",
     "SELECT count(*) AS n, sum(k) AS s, min(k) AS lo, max(k) AS hi "
     "FROM s [Range By '3 sec'] WHERE k >= 3",
     false},
    {"grouped_having",
     "SELECT g, count(*) AS n, sum(k) AS s, avg(v) AS a FROM s "
     "[Range By '4 sec'] GROUP BY g HAVING count(*) > 2",
     false},
    {"premask_projection",
     "SELECT k, v FROM s [Range By '2 sec'] WHERE k < 7 AND v > 0.0", false},
    {"unbounded_filter",
     "SELECT g, k, v FROM s [Unbounded] WHERE v <= 10.0", false},
    {"demoted_column",
     "SELECT count(*) AS n, avg(v) AS a FROM s [Range By '3 sec'] "
     "WHERE v > 0.0",
     true},
};

std::unique_ptr<ContinuousQuery> MakeQuery(const char* text) {
  SchemaCatalog catalog;
  catalog.AddStream("s", SensorSchema());
  auto query = ContinuousQuery::Create(text, catalog);
  EXPECT_TRUE(query.ok()) << query.status();
  return query.ok() ? std::move(*query) : nullptr;
}

/// Runs `text` over `kTicks` random ticks with the columnar toggle driven
/// by `columnar_at(tick)` and returns the per-tick fingerprints. The same
/// rng seed reproduces the identical stream across runs.
std::vector<std::string> RunStream(const char* text, bool jitter,
                                   uint64_t seed,
                                   bool (*columnar_at)(int tick)) {
  const bool before = stream::ColumnarEnabled();
  std::unique_ptr<ContinuousQuery> query = MakeQuery(text);
  if (query == nullptr) return {};
  SchemaRef schema = SensorSchema();
  Rng rng(seed);
  std::vector<std::string> fingerprints;
  for (int t = 0; t < 40; ++t) {
    const Timestamp now = Timestamp::Micros(500000 * t);
    const int rows = static_cast<int>(rng.NextUint64() % 6);
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(query->Push("s", RandomReading(schema, rng, now, jitter)).ok());
    }
    stream::SetColumnarEnabled(columnar_at(t));
    fingerprints.push_back(Fingerprint(query->Evaluate(now)));
  }
  stream::SetColumnarEnabled(before);
  return fingerprints;
}

TEST(ColumnarEquivalenceTest, RandomStreamsMatchRowPathBitwise) {
  for (const QueryCase& c : kCases) {
    for (const uint64_t seed : {11u, 29u, 47u}) {
      const std::vector<std::string> row =
          RunStream(c.text, c.jitter, seed, [](int) { return false; });
      const std::vector<std::string> columnar =
          RunStream(c.text, c.jitter, seed, [](int) { return true; });
      ASSERT_EQ(row.size(), columnar.size()) << c.name;
      for (size_t t = 0; t < row.size(); ++t) {
        ASSERT_EQ(row[t], columnar[t])
            << c.name << " seed=" << seed << " tick=" << t;
      }
    }
  }
}

TEST(ColumnarEquivalenceTest, MidStreamToggleFlipsAreSeamless) {
  // Flipping the global toggle between ticks exercises the mirror's full
  // lifecycle: cold start, incremental upkeep, teardown, and rebuild.
  for (const QueryCase& c : kCases) {
    const std::vector<std::string> row =
        RunStream(c.text, c.jitter, 83, [](int) { return false; });
    const std::vector<std::string> flipped =
        RunStream(c.text, c.jitter, 83, [](int t) { return (t / 7) % 2 == 0; });
    ASSERT_EQ(row.size(), flipped.size()) << c.name;
    for (size_t t = 0; t < row.size(); ++t) {
      ASSERT_EQ(row[t], flipped[t]) << c.name << " tick=" << t;
    }
  }
}

TEST(ColumnarEquivalenceTest, ForcedScalarKernelsMatchDispatch) {
  // The AVX2 and scalar kernel paths must agree bit for bit; with
  // force-scalar set the same streams must fingerprint identically.
  const bool before = stream::simd::ForceScalar();
  for (const QueryCase& c : kCases) {
    stream::simd::SetForceScalar(false);
    const std::vector<std::string> dispatched =
        RunStream(c.text, c.jitter, 59, [](int) { return true; });
    stream::simd::SetForceScalar(true);
    const std::vector<std::string> scalar =
        RunStream(c.text, c.jitter, 59, [](int) { return true; });
    stream::simd::SetForceScalar(before);
    ASSERT_EQ(dispatched.size(), scalar.size()) << c.name;
    for (size_t t = 0; t < dispatched.size(); ++t) {
      ASSERT_EQ(dispatched[t], scalar[t]) << c.name << " tick=" << t;
    }
  }
}

TEST(ColumnarEquivalenceTest, CheckpointRestoreMidWindowWithColumnar) {
  // Checkpoint with the mirror warm mid-window, restore into a fresh
  // instance, and run both forward: outputs must stay identical to each
  // other and to a columnar-off twin of the whole stream.
  const bool before = stream::ColumnarEnabled();
  for (const QueryCase& c : kCases) {
    stream::SetColumnarEnabled(true);
    std::unique_ptr<ContinuousQuery> live = MakeQuery(c.text);
    ASSERT_NE(live, nullptr);
    SchemaRef schema = SensorSchema();
    Rng rng(101);
    std::string checkpoint;
    std::unique_ptr<ContinuousQuery> restored;
    for (int t = 0; t < 30; ++t) {
      const Timestamp now = Timestamp::Micros(500000 * t);
      const int rows = 1 + static_cast<int>(rng.NextUint64() % 4);
      for (int i = 0; i < rows; ++i) {
        Tuple reading = RandomReading(schema, rng, now, c.jitter);
        ASSERT_TRUE(live->Push("s", reading).ok());
        if (restored != nullptr) {
          ASSERT_TRUE(restored->Push("s", reading).ok());
        }
      }
      const std::string fp = Fingerprint(live->Evaluate(now));
      if (t == 14) {
        // Mid-window: the '4 sec' ranges straddle this boundary.
        ByteWriter w;
        live->SaveState(w);
        checkpoint = w.data();
        restored = MakeQuery(c.text);
        ASSERT_NE(restored, nullptr);
        ByteReader r(checkpoint);
        ASSERT_TRUE(restored->LoadState(r).ok());
      } else if (t >= 15) {
        ASSERT_EQ(fp, Fingerprint(restored->Evaluate(now)))
            << c.name << " tick=" << t;
      }
    }
  }
  stream::SetColumnarEnabled(before);
}

// --- Processor-level toggle matrix ----------------------------------------

Tuple Rfid(const std::string& reader, const std::string& tag, double t) {
  return sim::ToTuple(sim::RfidReading{reader, tag, Timestamp::Seconds(t)});
}

template <typename Engine>
Status ConfigureShelves(Engine& engine, int num_shelves) {
  for (int s = 0; s < num_shelves; ++s) {
    core::ProximityGroup group;
    group.id = "pg_shelf" + std::to_string(s);
    group.device_type = "rfid";
    group.granule = core::SpatialGranule{"shelf_" + std::to_string(s)};
    group.receptor_ids.push_back("reader_" + std::to_string(s));
    ESP_RETURN_IF_ERROR(engine.AddProximityGroup(std::move(group)));
  }
  core::DeviceTypePipeline pipeline;
  pipeline.device_type = "rfid";
  pipeline.reading_schema = sim::RfidReadingSchema();
  pipeline.receptor_id_column = "reader_id";
  pipeline.smooth = core::SmoothPresenceCount(
      core::TemporalGranule(Duration::Seconds(5)), "tag_id");
  pipeline.arbitrate = core::ArbitrateMaxCount("tag_id", "reads");
  return engine.AddPipeline(std::move(pipeline));
}

std::vector<Tuple> TickReadings(int num_shelves, int tick, Rng& rng) {
  std::vector<Tuple> readings;
  for (int s = 0; s < num_shelves; ++s) {
    const std::string reader = "reader_" + std::to_string(s);
    const int reads = 1 + static_cast<int>(rng.NextUint64() % 3);
    for (int i = 0; i < reads; ++i) {
      int tag_shelf = s;
      if (rng.NextDouble() < 0.2) tag_shelf = (s + 1) % num_shelves;
      readings.push_back(Rfid(reader,
                              "tag_" + std::to_string(tag_shelf) + "_" +
                                  std::to_string(rng.NextUint64() % 4),
                              tick));
    }
  }
  return readings;
}

std::string Fingerprint(const core::TickResult& result) {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(result.per_type.size()));
  for (const auto& [type, relation] : result.per_type) {
    w.WriteString(type);
    w.WriteU32(static_cast<uint32_t>(relation.size()));
    for (const Tuple& tuple : relation.tuples()) stream::WriteTuple(w, tuple);
  }
  return w.data();
}

TEST(ColumnarEquivalenceTest, ProcessorToggleMatrixPreservesBitwiseOutputs) {
  // Columnar execution on or off, single and sharded, must reproduce the
  // default configuration byte for byte.
  constexpr int kShelves = 4;
  constexpr int kTicks = 25;

  std::vector<std::string> baseline;
  {
    core::EspProcessor single;
    ASSERT_TRUE(ConfigureShelves(single, kShelves).ok());
    ASSERT_TRUE(single.Start().ok());
    Rng rng(7);
    for (int t = 0; t < kTicks; ++t) {
      for (const Tuple& reading : TickReadings(kShelves, t, rng)) {
        ASSERT_TRUE(single.Push("rfid", reading).ok());
      }
      auto result = single.Tick(Timestamp::Seconds(t));
      ASSERT_TRUE(result.ok()) << result.status();
      baseline.push_back(Fingerprint(*result));
    }
  }

  for (const bool columnar : {false, true}) {
    for (const bool sharded : {false, true}) {
      stream::SetColumnarEnabled(columnar);

      auto run = [&](auto& engine) {
        ASSERT_TRUE(ConfigureShelves(engine, kShelves).ok());
        ASSERT_TRUE(engine.Start().ok());
        Rng rng(7);
        for (int t = 0; t < kTicks; ++t) {
          for (const Tuple& reading : TickReadings(kShelves, t, rng)) {
            ASSERT_TRUE(engine.Push("rfid", reading).ok());
          }
          auto result = engine.Tick(Timestamp::Seconds(t));
          ASSERT_TRUE(result.ok()) << result.status();
          ASSERT_EQ(baseline[t], Fingerprint(*result))
              << "columnar=" << columnar << " sharded=" << sharded
              << " tick=" << t;
        }
      };
      if (sharded) {
        core::ShardedEspProcessor engine({.num_shards = 3});
        run(engine);
      } else {
        core::EspProcessor engine;
        run(engine);
      }

      stream::SetColumnarEnabled(true);
    }
  }
}

}  // namespace
}  // namespace esp::cql
