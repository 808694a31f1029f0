#include "cql/incremental_exec.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/rng.h"
#include "cql/continuous_query.h"
#include "cql/evaluator.h"
#include "cql/parser.h"
#include "stream/serialize.h"
#include "stream/tuple.h"

namespace esp::cql {
namespace {

using stream::DataType;
using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;

// The admissible hot shape: every supported aggregate over an int64 column,
// grouped by a string key, on a sliding RANGE window.
constexpr char kGroupedQuery[] =
    "SELECT tag_id, count(*) AS n, sum(reads) AS s, avg(reads) AS a, "
    "min(reads) AS mn, max(reads) AS mx "
    "FROM readings [Range By '5 sec'] GROUP BY tag_id";

SchemaRef ReadingSchema() {
  return stream::MakeSchema(
      {{"tag_id", DataType::kString}, {"reads", DataType::kInt64}});
}

SchemaCatalog MakeCatalog() {
  SchemaCatalog catalog;
  catalog.AddStream("readings", ReadingSchema());
  return catalog;
}

std::unique_ptr<ContinuousQuery> MakeQuery(const std::string& text) {
  auto cq = ContinuousQuery::Create(text, MakeCatalog());
  EXPECT_TRUE(cq.ok()) << cq.status();
  return cq.ok() ? std::move(*cq) : nullptr;
}

/// The rescan reference: a one-shot ExecuteQuery over the stream's whole
/// history, with no prepared plan, window buffer or incremental engine. The
/// evaluator applies the query's [Range] window itself.
struct Rescan {
  explicit Rescan(const std::string& text) {
    auto parsed = ParseQuery(text);
    if (parsed.ok()) query = std::move(*parsed);
  }

  StatusOr<Relation> Evaluate(Timestamp now) const {
    Catalog catalog;
    catalog.AddStreamView("readings", &history);
    return ExecuteQuery(*query, catalog, now);
  }

  std::unique_ptr<SelectQuery> query;
  Relation history{ReadingSchema()};
};

/// Serializes a relation through the checkpoint codec — the strongest
/// equality we can assert: byte-for-byte identical persisted form.
std::string Bytes(const Relation& rel) {
  ByteWriter w;
  for (size_t i = 0; i < rel.size(); ++i) stream::WriteTuple(w, rel.tuple(i));
  return w.data();
}

/// One randomly-generated tick: a burst of tuples then an Evaluate. The same
/// Rng seed replays the identical sequence into every query under test.
struct Driver {
  explicit Driver(uint64_t seed) : rng(seed) {}

  std::vector<Tuple> NextBurst() {
    t_ms += rng.UniformInt(100, 700);
    std::vector<Tuple> burst;
    const int n = static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < n; ++i) {
      const std::string tag = "tag_" + std::to_string(rng.UniformInt(0, 5));
      burst.push_back(Tuple(
          schema,
          {interned ? Value::Interned(tag) : Value::String(tag),
           Value::Int64(rng.UniformInt(-5, 5))},
          Timestamp::Micros(t_ms * 1000)));
    }
    return burst;
  }

  Timestamp now() const { return Timestamp::Micros(t_ms * 1000); }

  Rng rng;
  SchemaRef schema = ReadingSchema();
  int64_t t_ms = 0;
  bool interned = true;
};

TEST(IncrementalQueryTest, RandomStreamMatchesRescanBitwise) {
  auto fast = MakeQuery(kGroupedQuery);
  Rescan slow(kGroupedQuery);
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow.query, nullptr);

  Driver driver(17);
  for (int tick = 0; tick < 400; ++tick) {
    for (const Tuple& tuple : driver.NextBurst()) {
      ASSERT_TRUE(fast->Push("readings", tuple).ok());
      slow.history.Add(tuple);
    }
    auto got = fast->Evaluate(driver.now());
    auto want = slow.Evaluate(driver.now());
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_EQ(Bytes(*got), Bytes(*want)) << "tick " << tick;
  }
}

TEST(IncrementalQueryTest, InternedAndPlainInputsAgreeBitwise) {
  // Interning is an in-memory representation choice; the persisted output
  // bytes must not depend on it.
  auto interned_q = MakeQuery(kGroupedQuery);
  auto plain_q = MakeQuery(kGroupedQuery);
  ASSERT_NE(interned_q, nullptr);
  ASSERT_NE(plain_q, nullptr);

  Driver a(23);
  Driver b(23);
  b.interned = false;
  for (int tick = 0; tick < 200; ++tick) {
    for (const Tuple& tuple : a.NextBurst()) {
      ASSERT_TRUE(interned_q->Push("readings", tuple).ok());
    }
    for (const Tuple& tuple : b.NextBurst()) {
      ASSERT_TRUE(plain_q->Push("readings", tuple).ok());
    }
    auto got = interned_q->Evaluate(a.now());
    auto want = plain_q->Evaluate(b.now());
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_EQ(Bytes(*got), Bytes(*want)) << "tick " << tick;
  }
}

TEST(IncrementalQueryTest, CheckpointRestoreMidWindowMatchesRescan) {
  auto fast = MakeQuery(kGroupedQuery);
  Rescan slow(kGroupedQuery);
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow.query, nullptr);

  Driver driver(31);
  auto feed = [&](ContinuousQuery& q, const std::vector<Tuple>& burst) {
    for (const Tuple& tuple : burst) {
      ASSERT_TRUE(q.Push("readings", tuple).ok());
    }
  };
  // Warm both queries so the window holds live members mid-flight.
  for (int tick = 0; tick < 50; ++tick) {
    const std::vector<Tuple> burst = driver.NextBurst();
    feed(*fast, burst);
    for (const Tuple& tuple : burst) slow.history.Add(tuple);
    ASSERT_TRUE(fast->Evaluate(driver.now()).ok());
    ASSERT_TRUE(slow.Evaluate(driver.now()).ok());
  }

  // Checkpoint the incremental query mid-window and restore into a fresh
  // instance (whose engine must rebuild from the restored history).
  ByteWriter checkpoint;
  fast->SaveState(checkpoint);
  auto restored = MakeQuery(kGroupedQuery);
  ASSERT_NE(restored, nullptr);
  ByteReader reader(checkpoint.data());
  ASSERT_TRUE(restored->LoadState(reader).ok());

  // The original, the restored copy, and the rescan baseline must agree
  // byte-for-byte from here on.
  for (int tick = 0; tick < 100; ++tick) {
    const std::vector<Tuple> burst = driver.NextBurst();
    feed(*fast, burst);
    feed(*restored, burst);
    for (const Tuple& tuple : burst) slow.history.Add(tuple);
    auto a = fast->Evaluate(driver.now());
    auto b = restored->Evaluate(driver.now());
    auto c = slow.Evaluate(driver.now());
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_TRUE(c.ok()) << c.status();
    ASSERT_EQ(Bytes(*a), Bytes(*b)) << "tick " << tick;
    ASSERT_EQ(Bytes(*a), Bytes(*c)) << "tick " << tick;
  }
}

TEST(IncrementalQueryTest, NonAdmissibleQueryStillMatchesRescan) {
  // A correlated >= ALL subquery is not engine-admissible; the standing
  // query takes the legacy path, and its persistent-scratch rescan must
  // still equal a scratch-free one-shot evaluation.
  const std::string arbitrate =
      "SELECT tag_id, reads FROM readings r [Range By '5 sec'] "
      "WHERE reads >= ALL(SELECT reads FROM readings o [Range By '5 sec'] "
      "WHERE o.tag_id = r.tag_id)";
  auto fast = MakeQuery(arbitrate);
  Rescan slow(arbitrate);
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow.query, nullptr);

  Driver driver(41);
  for (int tick = 0; tick < 150; ++tick) {
    for (const Tuple& tuple : driver.NextBurst()) {
      ASSERT_TRUE(fast->Push("readings", tuple).ok());
      slow.history.Add(tuple);
    }
    auto got = fast->Evaluate(driver.now());
    auto want = slow.Evaluate(driver.now());
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_EQ(Bytes(*got), Bytes(*want)) << "tick " << tick;
  }
}

}  // namespace
}  // namespace esp::cql
