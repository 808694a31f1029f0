#ifndef ESPBENCH_TRACE_H_
#define ESPBENCH_TRACE_H_

// The traced run's layer decorators. They wrap the program's public layer
// boundaries from outside — a core::Stage around every stage factory, a
// core::StreamEngine under the RecoveryCoordinator (or under the benchmark
// loop), and a net::IngestSink under the IngestServer — and change no
// program code.
//
// Stage counters live in a MAP_SHARED anonymous region created before any
// fork, one slot per (process, thread): pool threads of the sharded engine
// and forked cluster workers each own a slot, so no counter is written by
// two threads and the parent can read workers' totals. Spans (name, start,
// end, parent, tick) stay in memory and are written out when the run ends.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/stage.h"
#include "net/ingest_server.h"

namespace espbench::trace {

constexpr int kNumKinds = 5;  // core::StageKind values.
const char* KindName(int kind);

/// Per-kind stage totals.
struct KindTotals {
  int64_t push_ns = 0;
  int64_t eval_ns = 0;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  int64_t evals = 0;
};
using AllKinds = std::array<KindTotals, kNumKinds>;

/// Maps the shared counter region. Call once, before any thread or worker
/// process is started.
void Enable();
bool Enabled();

/// Wraps a stage factory so every instance it builds is timed.
esp::core::StageFactory WrapFactory(esp::core::StageFactory factory);
std::unique_ptr<esp::core::Stage> WrapStage(
    std::unique_ptr<esp::core::Stage> stage);

/// Stage totals over this process's slots, or over every other process's
/// slots (forked workers).
AllKinds Totals(bool this_process);

/// Replays a ShardedEspProcessor's receptor -> shard routing, so stage time
/// can be charged per shard whichever thread ran the shard: a per-group
/// stage instance (point, smooth, merge) belongs to the shard hosting the
/// receptor named in `receptor_column` of the first tuple pushed into it.
/// Call after Enable() and before the engine is built.
void SetShardRouting(std::string receptor_column,
                     std::unordered_map<std::string, int> receptor_shard,
                     int num_shards);

/// \brief One recorded span. `self_ns` is the span's own time (duration
/// minus child spans); for aggregated stage spans it is the summed busy
/// time of that stage kind within the tick.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t tick = 0;
  int64_t self_ns = 0;
};

/// Thread-safe in-memory span log.
class SpanLog {
 public:
  int64_t Add(Span span);
  int64_t NextId();
  /// Writes tab-separated spans to `path`.
  bool Write(const std::string& path) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
};
SpanLog& Spans();

/// \brief Per-tick breakdown computed by TracedEngine.
struct TickBreakdown {
  int64_t tick = 0;
  int64_t wall_ns = 0;        // Engine Tick() wall time.
  /// Stages on the tick's critical path: the wrapper stages (arbitrate,
  /// virtualize) plus the busiest thread's per-group stages.
  int64_t stage_path_ns = 0;
  int64_t pool_max_ns = 0;    // Busiest thread's per-group stage time.
  /// Per-group stage time of the busiest shard and the mean over all
  /// shards; both 0 without SetShardRouting.
  int64_t shard_max_ns = 0;
  int64_t shard_mean_ns = 0;
  int64_t push_ns = 0;        // Engine Push() time since the previous tick.
  int64_t pushes = 0;
  bool checkpointed = false;  // Checkpoint() ran right after this tick.
};

/// \brief Timing StreamEngine decorator. Forwards everything to `inner`;
/// times Push/Tick/Checkpoint and, after each Tick, turns the stage
/// counters into per-kind child spans of the tick span.
class TracedEngine : public esp::core::StreamEngine {
 public:
  explicit TracedEngine(esp::core::StreamEngine* inner) : inner_(inner) {}

  esp::Status Push(const std::string& device_type,
                   esp::stream::Tuple raw) override;
  esp::StatusOr<esp::core::TickResult> Tick(esp::Timestamp now) override;
  void SetExportGroupPartials(bool enabled) override {
    inner_->SetExportGroupPartials(enabled);
  }
  bool has_ticked() const override { return inner_->has_ticked(); }
  esp::Timestamp last_tick() const override { return inner_->last_tick(); }
  esp::StatusOr<esp::stream::SchemaRef> TypeReadingSchema(
      const std::string& device_type) const override {
    return inner_->TypeReadingSchema(device_type);
  }
  esp::Status Checkpoint(esp::core::CheckpointWriter& out) const override;
  esp::Status Restore(const esp::core::CheckpointReader& in) override {
    return inner_->Restore(in);
  }
  esp::core::RecoveryStats& mutable_recovery_stats() override {
    return inner_->mutable_recovery_stats();
  }
  esp::core::IngestStats& mutable_ingest_stats() override {
    return inner_->mutable_ingest_stats();
  }
  void SetIngestStatsSource(esp::core::IngestStatsSource source) override {
    inner_->SetIngestStatsSource(std::move(source));
  }
  esp::core::PipelineHealth Health() const override { return inner_->Health(); }
  esp::Status RegisterQuery(const std::string& tenant, const std::string& name,
                            const std::string& query_text) override;
  esp::Status UnregisterQuery(const std::string& name) override {
    return inner_->UnregisterQuery(name);
  }
  esp::Status SetTenantBudgets(
      const std::string& tenant,
      const esp::cql::TenantBudgets& budgets) override {
    return inner_->SetTenantBudgets(tenant, budgets);
  }

  /// Parent span for the next Tick's span (e.g. the sink's tick span).
  void SetParentSpan(int64_t id) { parent_span_ = id; }

  const std::vector<TickBreakdown>& ticks() const { return ticks_; }
  const std::vector<int64_t>& register_ns() const { return register_ns_; }

 private:
  esp::core::StreamEngine* inner_;
  std::vector<TickBreakdown> ticks_;
  std::vector<int64_t> register_ns_;
  int64_t pending_push_ns_ = 0;
  int64_t pending_pushes_ = 0;
  int64_t tick_counter_ = 0;
  int64_t parent_span_ = 0;
  int64_t last_tick_span_ = 0;
  /// Per-slot stage totals at the previous snapshot.
  std::vector<AllKinds> last_slot_kinds_;
  /// Per-shard stage time at the previous snapshot.
  std::vector<int64_t> last_shard_ns_;
};

/// \brief Per-tick record of the traced ingest sink.
struct SinkTick {
  int64_t sink_tick_ns = 0;   // Sink Tick() wall (journal + engine).
  int64_t sink_push_ns = 0;   // Sink Push() wall since the previous tick.
  int64_t pushes = 0;
  /// Server thread CPU since the previous tick, and the part of it spent
  /// inside the sink.
  int64_t server_cpu_ns = 0;
  int64_t sink_cpu_ns = 0;
};

/// \brief Timing IngestSink decorator under the IngestServer. Runs on the
/// server's event-loop thread.
class TracedSink : public esp::net::IngestSink {
 public:
  TracedSink(esp::net::IngestSink* inner, TracedEngine* engine)
      : inner_(inner), engine_(engine) {}

  esp::Status Push(const std::string& device_type,
                   esp::stream::Tuple raw) override;
  esp::StatusOr<esp::core::TickResult> Tick(esp::Timestamp now) override;
  esp::StatusOr<esp::stream::SchemaRef> ReadingSchema(
      const std::string& device_type) const override {
    return inner_->ReadingSchema(device_type);
  }
  void SetStatsSource(esp::core::IngestStatsSource source) override {
    inner_->SetStatsSource(std::move(source));
  }

  /// Per-tick records; read only after the server has stopped or between
  /// phases while the client is idle.
  std::vector<SinkTick>& ticks() { return ticks_; }

 private:
  esp::net::IngestSink* inner_;
  TracedEngine* engine_;
  std::vector<SinkTick> ticks_;
  int64_t pending_push_ns_ = 0;
  int64_t pending_sink_cpu_ns_ = 0;
  int64_t pending_pushes_ = 0;
  int64_t last_server_cpu_ns_ = -1;
  int64_t tick_counter_ = 0;
};

}  // namespace espbench::trace

#endif  // ESPBENCH_TRACE_H_
