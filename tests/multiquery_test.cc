// Multi-tenant shared-plan serving tests. The registry's contract is
// exactness: with plan dedupe and window sharing on, every subscription's
// per-tick output must be bitwise-identical to a naive one-plan-per-query
// baseline fed the same stream — across the sharing × columnar toggle
// matrix, across runtime add/remove against warm windows, and across
// checkpoint/restore. On top of that sit the typed admission-control errors
// and the dedupe/cost accounting the serving layer reports through Health().

#include "cql/query_registry.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/processor.h"
#include "core/sharded_processor.h"
#include "core/toolkit.h"
#include "sim/reading.h"
#include "stream/column.h"

namespace esp::cql {
namespace {

using stream::DataType;
using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;

SchemaRef ReadingSchema() {
  return stream::MakeSchema({{"tag_id", DataType::kString},
                             {"shelf", DataType::kInt64},
                             {"temp", DataType::kDouble}});
}

/// Restores the global columnar toggle on scope exit so a failing matrix
/// leg cannot poison unrelated tests.
struct ToggleGuard {
  ~ToggleGuard() { stream::SetColumnarEnabled(true); }
};

Tuple Reading(const SchemaRef& schema, Rng& rng, int t, int i) {
  return Tuple(schema,
               {Value::String("tag_" + std::to_string(rng.UniformInt(0, 5))),
                Value::Int64(rng.UniformInt(0, 3)),
                Value::Double(rng.UniformInt(0, 40) / 7.0)},
               Timestamp::Micros((t * 1000LL + i * 10) * 1000));
}

/// The query pool: shelf-presence and outlier shapes from the paper's
/// serving scenario, including case/order variants that must dedupe and a
/// mix of bounded, rows, sliding, and unbounded windows.
const std::vector<std::string>& QueryPool() {
  static const std::vector<std::string> pool = {
      "SELECT tag_id AS t, count(*) AS n FROM readings [Range By '5 sec'] "
      "GROUP BY tag_id",
      // Dedupe variant of the first query (case + conjunct-free).
      "select TAG_ID as t, COUNT(*) as n from READINGS [Range By '5 sec'] "
      "group by TAG_ID",
      "SELECT tag_id AS t, shelf AS s FROM readings [Rows 12] "
      "WHERE temp > 2.5",
      // Dedupe variant via total-conjunct commutation.
      "SELECT count(*) AS n FROM readings [Range By '8 sec'] "
      "WHERE shelf = 1 AND temp > 1.5",
      "SELECT count(*) AS n FROM readings [Range By '8 sec'] "
      "WHERE temp > 1.5 AND shelf = 1",
      "SELECT shelf AS s, avg(temp) AS mean FROM readings "
      "[Range By '6 sec' Slide By '2 sec'] GROUP BY shelf",
      "SELECT count(*) AS total FROM readings",  // Unbounded family.
      "SELECT tag_id AS t FROM readings [Range By '3 sec'] "
      "WHERE shelf = 2 AND tag_id <> 'tag_0'",
  };
  return pool;
}

/// One naive baseline subscription: a private ContinuousQuery fed every
/// pushed tuple itself.
struct NaiveSub {
  std::string name;
  std::unique_ptr<ContinuousQuery> query;
};

std::unique_ptr<QueryRegistry> MakeRegistry(QueryRegistry::Options options) {
  auto registry = std::make_unique<QueryRegistry>(std::move(options));
  EXPECT_TRUE(registry->AddStream("readings", ReadingSchema()).ok());
  return registry;
}

SchemaCatalog NaiveCatalog() {
  SchemaCatalog catalog;
  catalog.AddStream("readings", ReadingSchema());
  return catalog;
}

void ExpectTickMatchesNaive(const std::vector<SubscriptionResult>& results,
                            const std::vector<NaiveSub>& naive, Timestamp now,
                            const std::string& context) {
  ASSERT_EQ(results.size(), naive.size()) << context;
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].name, naive[i].name) << context;
    auto expected = naive[i].query->Evaluate(now);
    if (!expected.ok()) {
      EXPECT_FALSE(results[i].status.ok()) << context << " " << naive[i].name;
      EXPECT_EQ(results[i].status.code(), expected.status().code())
          << context << " " << naive[i].name;
      continue;
    }
    ASSERT_TRUE(results[i].status.ok())
        << context << " " << naive[i].name << ": " << results[i].status;
    ASSERT_NE(results[i].result, nullptr) << context;
    EXPECT_EQ(results[i].result->ToString(), expected->ToString())
        << context << " " << naive[i].name;
  }
}

/// Drives one sharing configuration for `ticks` ticks against the naive
/// baseline, comparing every subscription's rendered result every tick.
void RunEquivalence(bool share_plans, bool share_windows) {
  const std::string context = std::string("share_plans=") +
                              (share_plans ? "1" : "0") +
                              " share_windows=" + (share_windows ? "1" : "0");
  auto registry = MakeRegistry(
      {.share_plans = share_plans, .share_windows = share_windows});
  const SchemaCatalog catalog = NaiveCatalog();
  const SchemaRef schema = ReadingSchema();

  std::vector<NaiveSub> naive;
  const auto& pool = QueryPool();
  for (size_t i = 0; i < pool.size(); ++i) {
    const std::string name = "q" + std::to_string(i);
    ASSERT_TRUE(registry->Register("tenant_" + std::to_string(i % 3), name,
                                   pool[i])
                    .ok())
        << context << " " << pool[i];
    auto cq = ContinuousQuery::Create(pool[i], catalog);
    ASSERT_TRUE(cq.ok()) << pool[i];
    naive.push_back({name, std::move(*cq)});
  }

  Rng rng(42);
  for (int t = 1; t <= 25; ++t) {
    const int count = 2 + static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < count; ++i) {
      const Tuple tuple = Reading(schema, rng, t, i);
      ASSERT_TRUE(registry->Push("readings", tuple).ok()) << context;
      for (NaiveSub& sub : naive) {
        ASSERT_TRUE(sub.query->Push("readings", tuple).ok()) << context;
      }
    }
    const Timestamp now = Timestamp::Seconds(t);
    auto results = registry->Tick(now);
    ASSERT_TRUE(results.ok()) << context << ": " << results.status();
    ExpectTickMatchesNaive(*results, naive, now,
                           context + " t=" + std::to_string(t));
  }

  const QueryServingStats stats = registry->Stats();
  EXPECT_EQ(stats.subscriptions, pool.size());
  if (share_plans) {
    // The pool contains two dedupe pairs: 8 subscriptions, 6 plans.
    EXPECT_EQ(stats.physical_plans, pool.size() - 2) << context;
    EXPECT_GT(stats.dedup_saved_evals, 0u) << context;
  } else {
    EXPECT_EQ(stats.physical_plans, pool.size()) << context;
    EXPECT_EQ(stats.dedup_saved_evals, 0u) << context;
  }
  if (share_windows) {
    // One bounded + one unbounded family buffer for the single stream.
    EXPECT_EQ(stats.shared_buffers, 2u) << context;
  } else {
    EXPECT_EQ(stats.shared_buffers, 0u) << context;
  }
}

TEST(QueryRegistryEquivalenceTest, MatchesNaiveAcrossSharingMatrix) {
  for (const bool share_plans : {false, true}) {
    for (const bool share_windows : {false, true}) {
      RunEquivalence(share_plans, share_windows);
    }
  }
}

TEST(QueryRegistryEquivalenceTest, MatchesNaiveAcrossExecutionToggles) {
  ToggleGuard guard;
  for (const bool columnar : {false, true}) {
    stream::SetColumnarEnabled(columnar);
    RunEquivalence(/*share_plans=*/true, /*share_windows=*/true);
  }
}

TEST(QueryRegistryEquivalenceTest, RuntimeAddAttachesToWarmWindows) {
  // A subscription registered mid-stream whose window fits inside the
  // retained union must behave exactly like a naive query that replayed the
  // whole stream — the warm shared buffer IS that replayed history.
  auto registry = MakeRegistry({});
  const SchemaCatalog catalog = NaiveCatalog();
  const SchemaRef schema = ReadingSchema();

  const std::string wide =
      "SELECT tag_id AS t, count(*) AS n FROM readings [Range By '10 sec'] "
      "GROUP BY tag_id";
  const std::string narrow =
      "SELECT shelf AS s, count(*) AS n FROM readings [Range By '4 sec'] "
      "GROUP BY shelf";
  ASSERT_TRUE(registry->Register("acme", "wide", wide).ok());

  auto naive_wide = ContinuousQuery::Create(wide, catalog);
  auto naive_narrow = ContinuousQuery::Create(narrow, catalog);
  ASSERT_TRUE(naive_wide.ok() && naive_narrow.ok());

  Rng rng(7);
  auto feed = [&](int t) {
    for (int i = 0; i < 3; ++i) {
      const Tuple tuple = Reading(schema, rng, t, i);
      ASSERT_TRUE(registry->Push("readings", tuple).ok());
      ASSERT_TRUE((*naive_wide)->Push("readings", tuple).ok());
      // The naive narrow query sees the FULL stream from t=1 even though
      // the registry subscription only arrives at t=10.
      ASSERT_TRUE((*naive_narrow)->Push("readings", tuple).ok());
    }
  };

  for (int t = 1; t <= 9; ++t) {
    feed(t);
    ASSERT_TRUE(registry->Tick(Timestamp::Seconds(t)).ok());
  }

  // Runtime add: [Range 4 sec] ⊆ retained [Range 10 sec] union.
  ASSERT_TRUE(registry->Register("acme", "narrow", narrow).ok());
  for (int t = 10; t <= 20; ++t) {
    feed(t);
    const Timestamp now = Timestamp::Seconds(t);
    auto results = registry->Tick(now);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), 2u);
    auto expected_wide = (*naive_wide)->Evaluate(now);
    auto expected_narrow = (*naive_narrow)->Evaluate(now);
    ASSERT_TRUE(expected_wide.ok() && expected_narrow.ok());
    EXPECT_EQ((*results)[0].result->ToString(), expected_wide->ToString());
    EXPECT_EQ((*results)[1].result->ToString(), expected_narrow->ToString());
  }

  // Runtime remove: the survivor keeps its outputs; shared state the last
  // reader leaves behind is reclaimed.
  ASSERT_TRUE(registry->Unregister("wide").ok());
  for (int t = 21; t <= 25; ++t) {
    feed(t);
    const Timestamp now = Timestamp::Seconds(t);
    auto results = registry->Tick(now);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), 1u);
    EXPECT_EQ((*results)[0].name, "narrow");
    auto expected = (*naive_narrow)->Evaluate(now);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*results)[0].result->ToString(), expected->ToString());
  }

  ASSERT_TRUE(registry->Unregister("narrow").ok());
  EXPECT_EQ(registry->subscriptions(), 0u);
  EXPECT_EQ(registry->BufferedTuples(), 0u);
  EXPECT_EQ(registry->Stats().shared_buffers, 0u);
}

TEST(QueryRegistryTest, AdmissionControlTypedErrors) {
  QueryRegistry::Options options;
  options.default_budgets.max_queries = 2;
  options.default_budgets.max_window_range = Duration::Seconds(10);
  options.default_budgets.max_window_rows = 100;
  options.default_budgets.allow_unbounded = false;
  auto registry = MakeRegistry(options);

  const std::string ok_query =
      "SELECT tag_id AS t FROM readings [Range By '5 sec']";

  // Window-range budget.
  Status s = registry->Register(
      "acme", "too_wide",
      "SELECT tag_id AS t FROM readings [Range By '60 sec']");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;

  // Window-rows budget.
  s = registry->Register("acme", "too_many_rows",
                         "SELECT tag_id AS t FROM readings [Rows 5000]");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;

  // Unbounded windows disallowed.
  s = registry->Register("acme", "unbounded",
                         "SELECT count(*) AS n FROM readings");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;

  // Query-count budget: two fit, the third is rejected.
  ASSERT_TRUE(registry->Register("acme", "q1", ok_query).ok());
  ASSERT_TRUE(registry->Register("acme", "q2", ok_query).ok());
  s = registry->Register("acme", "q3", ok_query);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;

  // A per-tenant override relaxes the default for that tenant only.
  TenantBudgets roomy = options.default_budgets;
  roomy.max_queries = 10;
  registry->SetTenantBudgets("bigcorp", roomy);
  ASSERT_TRUE(registry->Register("bigcorp", "b1", ok_query).ok());
  ASSERT_TRUE(registry->Register("bigcorp", "b2", ok_query).ok());
  ASSERT_TRUE(registry->Register("bigcorp", "b3", ok_query).ok());

  // Rejections are attributed to the right tenant.
  const QueryServingStats stats = registry->Stats();
  EXPECT_EQ(stats.rejected_total, 4u);
  for (const TenantStats& tenant : stats.tenants) {
    if (tenant.tenant == "acme") {
      EXPECT_EQ(tenant.queries, 2u);
      EXPECT_EQ(tenant.rejected, 4u);
    } else if (tenant.tenant == "bigcorp") {
      EXPECT_EQ(tenant.queries, 3u);
      EXPECT_EQ(tenant.rejected, 0u);
    }
  }

  // Name collisions and unknown unregisters are typed, not budget errors.
  s = registry->Register("other", "q1", ok_query);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
  s = registry->Unregister("nope");
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s;
  s = registry->Push("unknown_stream",
                     Tuple(ReadingSchema(),
                           {Value::String("x"), Value::Int64(0),
                            Value::Double(0)},
                           Timestamp::Seconds(1)));
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s;
}

TEST(QueryRegistryTest, EvalTimeBudgetThrottlesTenant) {
  QueryRegistry::Options options;
  options.default_budgets.max_eval_time = Duration::Millis(1);
  auto registry = MakeRegistry(options);

  // Fake monotonic clock: every call advances 5 ms, so each plan eval
  // appears to take 5 ms — over the 1 ms budget.
  int64_t fake_nanos = 0;
  registry->SetEvalTimerForTesting([&fake_nanos]() {
    fake_nanos += 5'000'000;
    return fake_nanos;
  });

  ASSERT_TRUE(registry
                  ->Register("slow", "q1",
                             "SELECT count(*) AS n FROM readings "
                             "[Range By '5 sec']")
                  .ok());
  ASSERT_TRUE(registry->Tick(Timestamp::Seconds(1)).ok());

  QueryServingStats stats = registry->Stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_TRUE(stats.tenants[0].throttled);
  EXPECT_GE(stats.tenants[0].last_tick_eval_time, Duration::Millis(5));

  // Throttled: running subscriptions keep evaluating, new ones bounce.
  Status s = registry->Register("slow", "q2",
                                "SELECT count(*) AS n FROM readings "
                                "[Range By '3 sec']");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
  // A different tenant is unaffected.
  ASSERT_TRUE(registry
                  ->Register("fast", "f1",
                             "SELECT count(*) AS n FROM readings "
                             "[Range By '3 sec']")
                  .ok());

  // A tick back under budget clears the throttle.
  registry->SetEvalTimerForTesting([&fake_nanos]() { return fake_nanos; });
  ASSERT_TRUE(registry->Tick(Timestamp::Seconds(2)).ok());
  stats = registry->Stats();
  EXPECT_FALSE(stats.tenants[0].throttled);
  EXPECT_TRUE(registry->Register("slow", "q2",
                                 "SELECT count(*) AS n FROM readings "
                                 "[Range By '3 sec']")
                  .ok());
}

TEST(QueryRegistryTest, ErrorIsolationAcrossTenants) {
  // One plan whose predicate errors at runtime (division by a column that
  // hits zero) fails only its own subscription's result; the healthy
  // tenant's result still arrives the same tick.
  auto registry = MakeRegistry({});
  ASSERT_TRUE(registry
                  ->Register("risky", "div",
                             "SELECT tag_id AS t FROM readings "
                             "[Range By '5 sec'] WHERE temp / shelf > 0.1")
                  .ok());
  ASSERT_TRUE(registry
                  ->Register("steady", "count_all",
                             "SELECT count(*) AS n FROM readings "
                             "[Range By '5 sec']")
                  .ok());

  const SchemaRef schema = ReadingSchema();
  ASSERT_TRUE(registry
                  ->Push("readings",
                         Tuple(schema,
                               {Value::String("a"), Value::Int64(0),
                                Value::Double(1.5)},
                               Timestamp::Seconds(1)))
                  .ok());
  auto results = registry->Tick(Timestamp::Seconds(1));
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_FALSE((*results)[0].status.ok());
  EXPECT_EQ((*results)[0].result, nullptr);
  ASSERT_TRUE((*results)[1].status.ok()) << (*results)[1].status;
  EXPECT_EQ((*results)[1].result->size(), 1u);

  const QueryServingStats stats = registry->Stats();
  for (const TenantStats& tenant : stats.tenants) {
    if (tenant.tenant == "risky") EXPECT_EQ(tenant.eval_errors, 1u);
    if (tenant.tenant == "steady") EXPECT_EQ(tenant.eval_errors, 0u);
  }
}

TEST(QueryRegistryTest, SaveLoadStateResumesIdentically) {
  const SchemaRef schema = ReadingSchema();
  const auto& pool = QueryPool();

  auto original = MakeRegistry({});
  std::vector<NaiveSub> naive;
  const SchemaCatalog catalog = NaiveCatalog();
  for (size_t i = 0; i < pool.size(); ++i) {
    const std::string name = "q" + std::to_string(i);
    ASSERT_TRUE(
        original->Register("t" + std::to_string(i % 2), name, pool[i]).ok());
    auto cq = ContinuousQuery::Create(pool[i], catalog);
    ASSERT_TRUE(cq.ok());
    naive.push_back({name, std::move(*cq)});
  }

  Rng rng(1234);
  auto feed = [&](QueryRegistry& registry, int t, bool also_naive) {
    for (int i = 0; i < 3; ++i) {
      const Tuple tuple = Reading(schema, rng, t, i);
      ASSERT_TRUE(registry.Push("readings", tuple).ok());
      if (also_naive) {
        for (NaiveSub& sub : naive) {
          ASSERT_TRUE(sub.query->Push("readings", tuple).ok());
        }
      }
    }
  };

  for (int t = 1; t <= 15; ++t) {
    feed(*original, t, true);
    ASSERT_TRUE(original->Tick(Timestamp::Seconds(t)).ok());
  }

  ByteWriter w;
  original->SaveState(w);
  auto restored = MakeRegistry({});
  ByteReader r(w.data());
  ASSERT_TRUE(restored->LoadState(r).ok());
  EXPECT_EQ(restored->subscriptions(), original->subscriptions());
  EXPECT_EQ(restored->BufferedTuples(), original->BufferedTuples());
  EXPECT_EQ(restored->Stats().physical_plans,
            original->Stats().physical_plans);

  // Drive both registries and the naive baseline in lockstep.
  for (int t = 16; t <= 30; ++t) {
    for (int i = 0; i < 3; ++i) {
      const Tuple tuple = Reading(schema, rng, t, i);
      ASSERT_TRUE(original->Push("readings", tuple).ok());
      ASSERT_TRUE(restored->Push("readings", tuple).ok());
      for (NaiveSub& sub : naive) {
        ASSERT_TRUE(sub.query->Push("readings", tuple).ok());
      }
    }
    const Timestamp now = Timestamp::Seconds(t);
    auto from_original = original->Tick(now);
    auto from_restored = restored->Tick(now);
    ASSERT_TRUE(from_original.ok());
    ASSERT_TRUE(from_restored.ok());
    ASSERT_EQ(from_original->size(), from_restored->size());
    for (size_t i = 0; i < from_original->size(); ++i) {
      EXPECT_EQ((*from_original)[i].status.ToString(),
                (*from_restored)[i].status.ToString());
      if ((*from_original)[i].status.ok()) {
        EXPECT_EQ((*from_original)[i].result->ToString(),
                  (*from_restored)[i].result->ToString());
      }
    }
    ExpectTickMatchesNaive(*from_original, naive, now,
                           "post-restore t=" + std::to_string(t));
  }
}

TEST(QueryRegistryTest, LoadStateRejectsCorruptPayload) {
  auto registry = MakeRegistry({});
  ASSERT_TRUE(registry
                  ->Register("acme", "q",
                             "SELECT count(*) AS n FROM readings "
                             "[Range By '5 sec']")
                  .ok());
  ByteWriter w;
  registry->SaveState(w);

  std::string bytes = w.data();
  bytes[0] = static_cast<char>(0xEE);  // Unknown version byte.
  auto fresh = MakeRegistry({});
  ByteReader r(bytes);
  EXPECT_EQ(fresh->LoadState(r).code(), StatusCode::kParseError);
}

// --- Engine-level serving -------------------------------------------------

using core::DeviceTypePipeline;
using core::EspProcessor;
using core::ProximityGroup;
using core::ShardedEspProcessor;
using core::SpatialGranule;
using core::TemporalGranule;

/// The paper's shelf deployment (same shape the sharded-equivalence tests
/// use): per-shelf RFID readers, Smooth presence counts, Arbitrate max.
template <typename Engine>
Status ConfigureShelves(Engine& engine, int num_shelves) {
  for (int s = 0; s < num_shelves; ++s) {
    ProximityGroup group;
    group.id = "pg_shelf" + std::to_string(s);
    group.device_type = "rfid";
    group.granule = SpatialGranule{"shelf_" + std::to_string(s)};
    group.receptor_ids.push_back("reader_" + std::to_string(s));
    ESP_RETURN_IF_ERROR(engine.AddProximityGroup(std::move(group)));
  }
  DeviceTypePipeline pipeline;
  pipeline.device_type = "rfid";
  pipeline.reading_schema = sim::RfidReadingSchema();
  pipeline.receptor_id_column = "reader_id";
  pipeline.smooth = core::SmoothPresenceCount(
      TemporalGranule(Duration::Seconds(5)), "tag_id");
  pipeline.arbitrate = core::ArbitrateMaxCount("tag_id", "reads");
  return engine.AddPipeline(std::move(pipeline));
}

Tuple Rfid(const std::string& reader, const std::string& tag, double t) {
  return sim::ToTuple(sim::RfidReading{reader, tag, Timestamp::Seconds(t)});
}

std::vector<Tuple> TickReadings(int num_shelves, int tick, Rng& rng) {
  std::vector<Tuple> readings;
  for (int s = 0; s < num_shelves; ++s) {
    const int reads = 1 + static_cast<int>(rng.NextUint64() % 3);
    for (int i = 0; i < reads; ++i) {
      int tag_shelf = s;
      if (rng.NextDouble() < 0.2) tag_shelf = (s + 1) % num_shelves;
      readings.push_back(Rfid("reader_" + std::to_string(s),
                              "tag_" + std::to_string(tag_shelf) + "_" +
                                  std::to_string(rng.NextUint64() % 4),
                              tick));
    }
  }
  return readings;
}

std::string RenderQueryResults(
    const std::vector<SubscriptionResult>& results) {
  std::string out;
  for (const SubscriptionResult& result : results) {
    out += result.tenant + "/" + result.name + ": ";
    out += result.status.ok() ? result.result->ToString()
                              : result.status.ToString();
    out += "\n";
  }
  return out;
}

const std::vector<std::pair<std::string, std::string>>& EngineQueries() {
  // (name, text) over the cleaned per-type output stream rfid_input.
  static const std::vector<std::pair<std::string, std::string>> queries = {
      {"presence",
       "SELECT tag_id AS t, count(*) AS n FROM rfid_input "
       "[Range By '10 sec'] GROUP BY tag_id"},
      // Dedupe twin of "presence" under a different tenant.
      {"presence_b",
       "select TAG_ID as t, count(*) as n from RFID_INPUT "
       "[Range By '10 sec'] group by TAG_ID"},
      {"busy_shelves",
       "SELECT spatial_granule AS g, sum(reads) AS reads FROM rfid_input "
       "[Range By '6 sec'] GROUP BY spatial_granule"},
  };
  return queries;
}

template <typename Engine>
void RegisterEngineQueries(Engine& engine) {
  const auto& queries = EngineQueries();
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(engine
                    .RegisterQuery("tenant_" + std::to_string(i % 2),
                                   queries[i].first, queries[i].second)
                    .ok())
        << queries[i].second;
  }
}

TEST(EngineQueryServingTest, ProcessorServesQueriesAndShardedMatches) {
  EspProcessor single;
  ASSERT_TRUE(ConfigureShelves(single, 4).ok());
  ASSERT_TRUE(single.Start().ok());

  ShardedEspProcessor sharded({.num_shards = 3});
  ASSERT_TRUE(ConfigureShelves(sharded, 4).ok());
  ASSERT_TRUE(sharded.Start().ok());

  RegisterEngineQueries(single);
  RegisterEngineQueries(sharded);

  Rng rng(99);
  for (int t = 0; t < 25; ++t) {
    for (const Tuple& reading : TickReadings(4, t, rng)) {
      ASSERT_TRUE(single.Push("rfid", reading).ok());
      ASSERT_TRUE(sharded.Push("rfid", reading).ok());
    }
    auto a = single.Tick(Timestamp::Seconds(t));
    auto b = sharded.Tick(Timestamp::Seconds(t));
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_EQ(a->query_results.size(), EngineQueries().size());
    EXPECT_EQ(RenderQueryResults(a->query_results),
              RenderQueryResults(b->query_results))
        << "t=" << t;
  }

  // Serving stats flow through Health(), with dedupe visible.
  const core::PipelineHealth health = single.Health();
  EXPECT_TRUE(health.queries.active());
  EXPECT_EQ(health.queries.subscriptions, 3u);
  EXPECT_EQ(health.queries.physical_plans, 2u);
  EXPECT_NE(health.ToString().find("queries:"), std::string::npos);

  // Runtime unregister flows through the engine API.
  ASSERT_TRUE(single.UnregisterQuery("presence_b").ok());
  EXPECT_EQ(single.UnregisterQuery("presence_b").code(),
            StatusCode::kNotFound);
}

TEST(EngineQueryServingTest, CheckpointRestoreCarriesSubscriptions) {
  EspProcessor original;
  ASSERT_TRUE(ConfigureShelves(original, 4).ok());
  ASSERT_TRUE(original.Start().ok());
  RegisterEngineQueries(original);

  Rng rng(7);
  int t = 0;
  for (; t < 15; ++t) {
    for (const Tuple& reading : TickReadings(4, t, rng)) {
      ASSERT_TRUE(original.Push("rfid", reading).ok());
    }
    ASSERT_TRUE(original.Tick(Timestamp::Seconds(t)).ok());
  }

  core::CheckpointWriter snapshot;
  ASSERT_TRUE(original.Checkpoint(snapshot).ok());

  // The restored processor is rebuilt from configuration alone — the
  // snapshot itself re-registers the subscriptions and reloads the shared
  // buffers.
  EspProcessor restored;
  ASSERT_TRUE(ConfigureShelves(restored, 4).ok());
  ASSERT_TRUE(restored.Start().ok());
  auto reader = core::CheckpointReader::Parse(snapshot.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(restored.Restore(*reader).ok());
  EXPECT_EQ(restored.Health().queries.subscriptions, EngineQueries().size());

  for (; t < 30; ++t) {
    for (const Tuple& reading : TickReadings(4, t, rng)) {
      ASSERT_TRUE(original.Push("rfid", reading).ok());
      ASSERT_TRUE(restored.Push("rfid", reading).ok());
    }
    auto a = original.Tick(Timestamp::Seconds(t));
    auto b = restored.Tick(Timestamp::Seconds(t));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(RenderQueryResults(a->query_results),
              RenderQueryResults(b->query_results))
        << "t=" << t;
  }
}

TEST(EngineQueryServingTest, QuerylessCheckpointHasNoQueriesSection) {
  // Snapshots from deployments that never used the serving layer must stay
  // byte-compatible with the pre-serving format: no "queries" section.
  EspProcessor engine;
  ASSERT_TRUE(ConfigureShelves(engine, 2).ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Tick(Timestamp::Seconds(0)).ok());

  core::CheckpointWriter snapshot;
  ASSERT_TRUE(engine.Checkpoint(snapshot).ok());
  auto reader = core::CheckpointReader::Parse(snapshot.Serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->HasSection("queries"));
}

}  // namespace
}  // namespace esp::cql
