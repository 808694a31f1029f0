// Engine micro-benchmarks (google-benchmark): throughput of the value
// model, window buffers, relational operators, the CQL layer (parse,
// analyze, continuous evaluation of the paper's queries), and a full
// ESP processor tick. These quantify the cost of the snapshot-semantics
// design that DESIGN.md calls out.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/processor.h"
#include "core/toolkit.h"
#include "cql/continuous_query.h"
#include "cql/evaluator.h"
#include "cql/parser.h"
#include "sim/reading.h"
#include "stream/ops.h"
#include "stream/window.h"

#include "bench/bench_util.h"

namespace esp {
namespace {

using stream::DataType;
using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;

SchemaRef BenchSchema() {
  return stream::MakeSchema(
      {{"tag_id", DataType::kString}, {"reads", DataType::kInt64}});
}

/// Wall time of one tick body, recorded into `recorder`.
template <typename Fn>
void TimedTick(bench::LatencyRecorder& recorder, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  recorder.Record(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count()));
}

void BM_TupleConstruct(benchmark::State& state) {
  SchemaRef schema = BenchSchema();
  int64_t i = 0;
  for (auto _ : state) {
    Tuple tuple(schema, {Value::String("tag_1"), Value::Int64(i++)},
                Timestamp::Micros(i));
    benchmark::DoNotOptimize(tuple);
  }
}
BENCHMARK(BM_TupleConstruct);

void BM_ValueCompareNumeric(benchmark::State& state) {
  const Value a = Value::Int64(7);
  const Value b = Value::Double(7.5);
  for (auto _ : state) {
    auto cmp = a.Compare(b);
    benchmark::DoNotOptimize(cmp);
  }
}
BENCHMARK(BM_ValueCompareNumeric);

void BM_WindowInsertSnapshot(benchmark::State& state) {
  const int64_t window_tuples = state.range(0);
  SchemaRef schema = BenchSchema();
  stream::WindowBuffer buffer(
      stream::WindowSpec::Range(Duration::Seconds(window_tuples)), schema);
  int64_t t = 0;
  for (auto _ : state) {
    Status status = buffer.Insert(Tuple(
        schema, {Value::String("tag"), Value::Int64(t)}, Timestamp::Seconds(t)));
    benchmark::DoNotOptimize(status);
    Relation snapshot = buffer.Snapshot(Timestamp::Seconds(t));
    benchmark::DoNotOptimize(snapshot);
    buffer.EvictBefore(Timestamp::Seconds(t));
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowInsertSnapshot)->Arg(16)->Arg(256)->Arg(2048);

void BM_GroupByAggregate(benchmark::State& state) {
  const int64_t rows = state.range(0);
  SchemaRef schema = BenchSchema();
  Relation input(schema);
  Rng rng(7);
  for (int64_t i = 0; i < rows; ++i) {
    input.Add(Tuple(schema,
                    {Value::String("tag_" + std::to_string(rng.UniformInt(0, 19))),
                     Value::Int64(i)},
                    Timestamp::Seconds(i)));
  }
  SchemaRef out = stream::MakeSchema(
      {{"tag_id", DataType::kString}, {"n", DataType::kInt64}});
  for (auto _ : state) {
    auto result = stream::GroupBy(
        input, {"tag_id"}, out,
        [&](const std::vector<Value>& key,
            const std::vector<const Tuple*>& group)
            -> StatusOr<Tuple> {
          return Tuple(out,
                       {key[0], Value::Int64(static_cast<int64_t>(group.size()))},
                       Timestamp::Epoch());
        });
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_GroupByAggregate)->Arg(100)->Arg(1000)->Arg(10000);

void BM_CqlParseQuery3(benchmark::State& state) {
  const std::string query =
      "SELECT spatial_granule, tag_id FROM arbitrate_input ai1 "
      "[Range By 'NOW'] GROUP BY spatial_granule, tag_id "
      "HAVING count(*) >= ALL(SELECT count(*) FROM arbitrate_input ai2 "
      "[Range By 'NOW'] WHERE ai1.tag_id = ai2.tag_id "
      "GROUP BY spatial_granule)";
  for (auto _ : state) {
    auto ast = cql::ParseQuery(query);
    benchmark::DoNotOptimize(ast);
  }
}
BENCHMARK(BM_CqlParseQuery3);

void BM_ContinuousQuery2PerTick(benchmark::State& state) {
  // The paper's Query 2 evaluated per tick over a 25-poll window of ~10
  // tags — the Smooth stage's steady-state work in the shelf experiment.
  cql::SchemaCatalog catalog;
  catalog.AddStream("smooth_input", sim::RfidReadingSchema());
  auto query = cql::ContinuousQuery::Create(
      "SELECT tag_id, count(*) AS reads FROM smooth_input "
      "[Range By '5 sec'] GROUP BY tag_id",
      catalog);
  if (!query.ok()) {
    state.SkipWithError(query.status().ToString().c_str());
    return;
  }
  Rng rng(11);
  int64_t tick = 0;
  SchemaRef schema = sim::RfidReadingSchema();
  bench::LatencyRecorder latency;
  for (auto _ : state) {
    TimedTick(latency, [&] {
      const Timestamp now = Timestamp::Micros(200000 * tick);
      for (int i = 0; i < 10; ++i) {
        if (rng.Bernoulli(0.6)) {
          (void)(*query)->Push(
              "smooth_input",
              Tuple(schema,
                    {Value::String("r0"),
                     Value::String("tag_" + std::to_string(i))},
                    now));
        }
      }
      auto result = (*query)->Evaluate(now);
      benchmark::DoNotOptimize(result);
      ++tick;
    });
  }
  latency.Report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContinuousQuery2PerTick);

void RunProcessorShelfTick(benchmark::State& state, bool columnar) {
  // Full Smooth+Arbitrate cascade, one 5 Hz tick of the shelf workload.
  const bool columnar_before = stream::ColumnarEnabled();
  stream::SetColumnarEnabled(columnar);
  core::EspProcessor processor;
  (void)processor.AddProximityGroup({"pg0", "rfid",
                                     core::SpatialGranule{"shelf_0"},
                                     {"reader_0"}});
  (void)processor.AddProximityGroup({"pg1", "rfid",
                                     core::SpatialGranule{"shelf_1"},
                                     {"reader_1"}});
  core::DeviceTypePipeline pipeline;
  pipeline.device_type = "rfid";
  pipeline.reading_schema = sim::RfidReadingSchema();
  pipeline.receptor_id_column = "reader_id";
  pipeline.smooth = core::SmoothPresenceCount(
      core::TemporalGranule(Duration::Seconds(5)), "tag_id");
  pipeline.arbitrate = core::ArbitrateMaxCount("tag_id", "reads");
  (void)processor.AddPipeline(std::move(pipeline));
  Status started = processor.Start();
  if (!started.ok()) {
    state.SkipWithError(started.ToString().c_str());
    return;
  }
  Rng rng(13);
  SchemaRef schema = sim::RfidReadingSchema();
  int64_t tick = 0;
  bench::LatencyRecorder latency;
  for (auto _ : state) {
    TimedTick(latency, [&] {
      const Timestamp now = Timestamp::Micros(200000 * tick);
      for (int reader = 0; reader < 2; ++reader) {
        for (int tag = 0; tag < 10; ++tag) {
          if (rng.Bernoulli(0.5)) {
            (void)processor.Push(
                "rfid",
                Tuple(schema,
                      {Value::String("reader_" + std::to_string(reader)),
                       Value::String("tag_" + std::to_string(tag))},
                      now));
          }
        }
      }
      auto result = processor.Tick(now);
      benchmark::DoNotOptimize(result);
      ++tick;
    });
  }
  latency.Report(state);
  stream::SetColumnarEnabled(columnar_before);
  state.SetItemsProcessed(state.iterations());
}

void BM_ProcessorShelfTick(benchmark::State& state) {
  RunProcessorShelfTick(state, /*columnar=*/true);
}
BENCHMARK(BM_ProcessorShelfTick);

void BM_ProcessorShelfTickRowStore(benchmark::State& state) {
  RunProcessorShelfTick(state, /*columnar=*/false);
}
BENCHMARK(BM_ProcessorShelfTickRowStore);

// --- Incremental window evaluation ----------------------------------------
// The sliding-window grouped aggregate (the paper's Query 2 shape), which
// the incremental engine admits and delta-maintains. Arg is the number of
// distinct group keys; the window holds ~25 polls of each key, but the
// emit cost grows only with live groups.

void RunWindowAggBench(benchmark::State& state, bool columnar) {
  const int64_t tags = state.range(0);
  cql::SchemaCatalog catalog;
  catalog.AddStream("smooth_input", sim::RfidReadingSchema());
  auto query = cql::ContinuousQuery::Create(
      "SELECT tag_id, count(*) AS reads FROM smooth_input "
      "[Range By '5 sec'] GROUP BY tag_id",
      catalog);
  if (!query.ok()) {
    state.SkipWithError(query.status().ToString().c_str());
    return;
  }
  const bool columnar_before = stream::ColumnarEnabled();
  stream::SetColumnarEnabled(columnar);
  Rng rng(19);
  SchemaRef schema = sim::RfidReadingSchema();
  int64_t tick = 0;
  bench::LatencyRecorder latency;
  for (auto _ : state) {
    TimedTick(latency, [&] {
      const Timestamp now = Timestamp::Micros(200000 * tick);
      for (int64_t i = 0; i < tags; ++i) {
        if (rng.Bernoulli(0.6)) {
          (void)(*query)->Push(
              "smooth_input",
              Tuple(schema,
                    {Value::Interned("r0"),
                     Value::Interned("tag_" + std::to_string(i))},
                    now));
        }
      }
      auto result = (*query)->Evaluate(now);
      benchmark::DoNotOptimize(result);
      ++tick;
    });
  }
  latency.Report(state);
  stream::SetColumnarEnabled(columnar_before);
  state.SetItemsProcessed(state.iterations());
}

void BM_WindowAggIncremental(benchmark::State& state) {
  RunWindowAggBench(state, /*columnar=*/true);
}
BENCHMARK(BM_WindowAggIncremental)->Arg(10)->Arg(100);

void BM_WindowAggIncrementalRowStore(benchmark::State& state) {
  RunWindowAggBench(state, /*columnar=*/false);
}
BENCHMARK(BM_WindowAggIncrementalRowStore)->Arg(10)->Arg(100);

// --- Columnar window aggregation ------------------------------------------
// Scalar aggregates with a numeric predicate over a sliding window — the
// shape the columnar executor serves wholesale from typed columns (batch
// WHERE, SIMD sum/min/max, zero row materialization). The RowStore variant
// pins the legacy cost: materialize every window row, evaluate WHERE per
// row, feed aggregators per row. Arg is the number of rows per tick; the
// 5 s window at 5 Hz holds ~25x that.

void RunColumnarAggBench(benchmark::State& state, bool columnar) {
  const int64_t rows_per_tick = state.range(0);
  SchemaRef schema = stream::MakeSchema(
      {{"sensor", DataType::kInt64}, {"rssi", DataType::kDouble}});
  cql::SchemaCatalog catalog;
  catalog.AddStream("readings", schema);
  auto query = cql::ContinuousQuery::Create(
      "SELECT count(*) AS n, avg(rssi) AS level, min(rssi) AS lo, "
      "max(rssi) AS hi FROM readings [Range By '5 sec'] WHERE rssi < 60.0",
      catalog);
  if (!query.ok()) {
    state.SkipWithError(query.status().ToString().c_str());
    return;
  }
  const bool columnar_before = stream::ColumnarEnabled();
  stream::SetColumnarEnabled(columnar);
  Rng rng(23);
  int64_t tick = 0;
  bench::LatencyRecorder latency;
  for (auto _ : state) {
    TimedTick(latency, [&] {
      const Timestamp now = Timestamp::Micros(200000 * tick);
      for (int64_t i = 0; i < rows_per_tick; ++i) {
        (void)(*query)->Push(
            "readings",
            Tuple(schema,
                  {Value::Int64(i % 16), Value::Double(rng.Uniform(0, 100))},
                  now));
      }
      auto result = (*query)->Evaluate(now);
      benchmark::DoNotOptimize(result);
      ++tick;
    });
  }
  latency.Report(state);
  stream::SetColumnarEnabled(columnar_before);
  state.SetItemsProcessed(state.iterations() * rows_per_tick);
}

void BM_ColumnarScalarAgg(benchmark::State& state) {
  RunColumnarAggBench(state, /*columnar=*/true);
}
BENCHMARK(BM_ColumnarScalarAgg)->Arg(64)->Arg(512);

void BM_ColumnarScalarAggRowStore(benchmark::State& state) {
  RunColumnarAggBench(state, /*columnar=*/false);
}
BENCHMARK(BM_ColumnarScalarAggRowStore)->Arg(64)->Arg(512);

// --- Compiled expression evaluation ---------------------------------------
// The evaluator binds column references to row slots and folds constants
// once per execution (the BoundExpr path); these benchmarks time one-shot
// projection and grouped queries over a growing unbounded history.

cql::Catalog BoundExprCatalog(int64_t rows) {
  SchemaRef schema = stream::MakeSchema({{"tag_id", DataType::kString},
                                         {"reads", DataType::kInt64},
                                         {"rssi", DataType::kDouble}});
  Relation history(schema);
  Rng rng(17);
  for (int64_t i = 0; i < rows; ++i) {
    history.Add(Tuple(schema,
                      {Value::String("tag_" + std::to_string(i % 50)),
                       Value::Int64(rng.UniformInt(0, 9)),
                       Value::Double(rng.Uniform(-80, -30))},
                      Timestamp::Seconds(i)));
  }
  cql::Catalog catalog;
  catalog.AddStream("readings", std::move(history));
  return catalog;
}

void RunExprPathBench(benchmark::State& state, const std::string& text) {
  const int64_t rows = state.range(0);
  const cql::Catalog catalog = BoundExprCatalog(rows);
  auto ast = cql::ParseQuery(text);
  if (!ast.ok()) {
    state.SkipWithError(ast.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto result =
        cql::ExecuteQuery(**ast, catalog, Timestamp::Seconds(rows));
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

const char kProjectionQuery[] =
    "SELECT tag_id, reads * 2 + 1 AS scaled, rssi FROM readings "
    "[Unbounded] WHERE reads >= 1 AND rssi < 0.0 - 35.0";

void BM_CqlProjectionCompiled(benchmark::State& state) {
  RunExprPathBench(state, kProjectionQuery);
}
BENCHMARK(BM_CqlProjectionCompiled)->Arg(256)->Arg(4096);

const char kGroupedQuery[] =
    "SELECT tag_id, count(*) AS n, avg(rssi) AS level FROM readings "
    "[Unbounded] WHERE reads >= 1 GROUP BY tag_id HAVING count(*) >= 2";

void BM_CqlGroupedCompiled(benchmark::State& state) {
  RunExprPathBench(state, kGroupedQuery);
}
BENCHMARK(BM_CqlGroupedCompiled)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace esp

// A regression baseline lands next to the binary on every run: unless the
// caller already chose an output, write BENCH_perf_stream_engine.json.
int main(int argc, char** argv) {
  // CI hook: ESP_FORCE_SCALAR=1 pins every kernel dispatch to the scalar
  // fallback so it stays benchmarked (and exercised) on AVX2 hardware.
  if (const char* force = std::getenv("ESP_FORCE_SCALAR");
      force != nullptr && force[0] == '1') {
    esp::stream::simd::SetForceScalar(true);
  }
  const std::string out_dir = esp::bench::ParseOutputDir(&argc, argv);
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag =
      "--benchmark_out=" +
      esp::bench::OutputPath(out_dir, "BENCH_perf_stream_engine.json");
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  for (const auto& [key, value] : esp::bench::BuildFlagsMetadata()) {
    ::benchmark::AddCustomContext(key, value);
  }
  int adjusted_argc = static_cast<int>(args.size());
  ::benchmark::Initialize(&adjusted_argc, args.data());
  if (::benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
