#include "trace.h"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <new>

#include "common.h"

namespace espbench::trace {

using esp::Status;
using esp::StatusOr;
using esp::Timestamp;
using esp::core::Stage;
using esp::core::StageFactory;
using esp::core::StageKind;
using esp::core::TickResult;
using esp::stream::Relation;
using esp::stream::Tuple;

const char* KindName(int kind) {
  static const char* kNames[kNumKinds] = {"point", "smooth", "merge",
                                          "arbitrate", "virtualize"};
  return kind >= 0 && kind < kNumKinds ? kNames[kind] : "unknown";
}

namespace {

constexpr int kMaxSlots = 128;

struct SharedKind {
  std::atomic<int64_t> push_ns;
  std::atomic<int64_t> eval_ns;
  std::atomic<int64_t> rows_in;
  std::atomic<int64_t> rows_out;
  std::atomic<int64_t> evals;
};

struct SharedSlot {
  std::atomic<int64_t> pid;
  std::atomic<int64_t> tid;
  SharedKind kinds[kNumKinds];
};

struct SharedRegion {
  std::atomic<int32_t> next_slot;
  SharedSlot slots[kMaxSlots];
};

SharedRegion* g_region = nullptr;

/// Shard routing (SetShardRouting); read-only once the engine is built.
constexpr int kMaxShards = 64;
struct ShardRouting {
  std::string receptor_column;
  std::unordered_map<std::string, int> receptor_shard;
  int num_shards = 0;
  /// Per-group stage time charged to each shard. Pushes run on the caller
  /// and evaluations on the pool, hence atomic adds; the pool's join orders
  /// them before the engine decorator reads them after a tick.
  std::array<std::atomic<int64_t>, kMaxShards> busy_ns{};
};
ShardRouting* g_routing = nullptr;

/// Bumped in every forked child, so a thread-local slot cached before the
/// fork (the worker's main thread inherits the parent's) is re-claimed.
std::atomic<int64_t> g_fork_generation{0};

void OnForkChild() { g_fork_generation.fetch_add(1); }

void Bump(std::atomic<int64_t>& counter, int64_t delta) {
  // Each slot has exactly one writer thread.
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

SharedSlot* MySlot() {
  thread_local SharedSlot* slot = nullptr;
  thread_local int64_t generation = -1;
  const int64_t current = g_fork_generation.load(std::memory_order_relaxed);
  if (slot == nullptr || generation != current) {
    const int32_t index = g_region->next_slot.fetch_add(1);
    if (index >= kMaxSlots) {
      std::fprintf(stderr, "espbench: trace slots exhausted\n");
      _exit(3);
    }
    slot = &g_region->slots[index];
    slot->pid.store(getpid());
    slot->tid.store(Gettid());
    generation = current;
  }
  return slot;
}

/// Timing decorator around one stage instance.
class TimedStage : public Stage {
 public:
  explicit TimedStage(std::unique_ptr<Stage> inner)
      : Stage(inner->kind(), inner->name()),
        inner_(std::move(inner)),
        kind_(static_cast<int>(inner_->kind())) {}

  Status Bind(const esp::cql::SchemaCatalog& inputs) override {
    Status status = inner_->Bind(inputs);
    output_schema_ = inner_->output_schema();
    return status;
  }

  Status Push(const std::string& input, Tuple tuple) override {
    if (shard_ == kUnrouted) Route(tuple);
    const int64_t start = NowNs();
    Status status = inner_->Push(input, std::move(tuple));
    const int64_t busy = NowNs() - start;
    SharedKind& k = MySlot()->kinds[kind_];
    Bump(k.push_ns, busy);
    Bump(k.rows_in, 1);
    ChargeShard(busy);
    return status;
  }

  StatusOr<Relation> Evaluate(Timestamp now) override {
    const int64_t start = NowNs();
    StatusOr<Relation> out = inner_->Evaluate(now);
    const int64_t busy = NowNs() - start;
    SharedKind& k = MySlot()->kinds[kind_];
    Bump(k.eval_ns, busy);
    Bump(k.evals, 1);
    if (out.ok()) Bump(k.rows_out, static_cast<int64_t>(out->size()));
    ChargeShard(busy);
    return out;
  }

  size_t buffered() const override { return inner_->buffered(); }
  Status SaveState(esp::ByteWriter& w) const override {
    return inner_->SaveState(w);
  }
  Status LoadState(esp::ByteReader& r) override {
    return inner_->LoadState(r);
  }

 private:
  static constexpr int kUnrouted = -2;   // Shard not known yet.
  static constexpr int kNoShard = -1;    // Not charged to any shard.

  bool PerGroup() const {
    return kind_ != static_cast<int>(StageKind::kArbitrate) &&
           kind_ != static_cast<int>(StageKind::kVirtualize);
  }

  /// Resolves the instance's shard from its first tuple.
  void Route(const Tuple& tuple) {
    shard_ = kNoShard;
    if (g_routing == nullptr || !PerGroup()) return;
    const StatusOr<esp::stream::Value> receptor =
        tuple.Get(g_routing->receptor_column);
    if (!receptor.ok() ||
        receptor->type() != esp::stream::DataType::kString) {
      return;
    }
    const auto it = g_routing->receptor_shard.find(receptor->string_value());
    if (it == g_routing->receptor_shard.end()) return;
    shard_ = it->second;
    ChargeShard(unrouted_ns_);
  }

  void ChargeShard(int64_t ns) {
    if (shard_ >= 0) {
      g_routing->busy_ns[shard_].fetch_add(ns, std::memory_order_relaxed);
    } else if (shard_ == kUnrouted) {
      unrouted_ns_ += ns;  // Evaluated before its first tuple.
    }
  }

  std::unique_ptr<Stage> inner_;
  int kind_;
  int shard_ = kUnrouted;
  int64_t unrouted_ns_ = 0;
};

KindTotals Load(const SharedKind& k) {
  KindTotals t;
  t.push_ns = k.push_ns.load(std::memory_order_relaxed);
  t.eval_ns = k.eval_ns.load(std::memory_order_relaxed);
  t.rows_in = k.rows_in.load(std::memory_order_relaxed);
  t.rows_out = k.rows_out.load(std::memory_order_relaxed);
  t.evals = k.evals.load(std::memory_order_relaxed);
  return t;
}

}  // namespace

void Enable() {
  if (g_region != nullptr) return;
  void* mem = mmap(nullptr, sizeof(SharedRegion), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    std::perror("espbench: mmap");
    _exit(3);
  }
  g_region = new (mem) SharedRegion();
  pthread_atfork(nullptr, nullptr, &OnForkChild);
}

bool Enabled() { return g_region != nullptr; }

StageFactory WrapFactory(StageFactory factory) {
  if (!Enabled() || !factory) return factory;
  return [factory = std::move(factory)]() -> StatusOr<std::unique_ptr<Stage>> {
    ESP_ASSIGN_OR_RETURN(std::unique_ptr<Stage> stage, factory());
    return WrapStage(std::move(stage));
  };
}

std::unique_ptr<Stage> WrapStage(std::unique_ptr<Stage> stage) {
  if (!Enabled() || stage == nullptr) return stage;
  return std::make_unique<TimedStage>(std::move(stage));
}

AllKinds Totals(bool this_process) {
  AllKinds totals{};
  if (!Enabled()) return totals;
  const int32_t used = std::min(g_region->next_slot.load(), kMaxSlots);
  const int64_t me = getpid();
  for (int32_t s = 0; s < used; ++s) {
    const SharedSlot& slot = g_region->slots[s];
    if ((slot.pid.load() == me) != this_process) continue;
    for (int k = 0; k < kNumKinds; ++k) {
      const KindTotals t = Load(slot.kinds[k]);
      totals[k].push_ns += t.push_ns;
      totals[k].eval_ns += t.eval_ns;
      totals[k].rows_in += t.rows_in;
      totals[k].rows_out += t.rows_out;
      totals[k].evals += t.evals;
    }
  }
  return totals;
}

void SetShardRouting(std::string receptor_column,
                     std::unordered_map<std::string, int> receptor_shard,
                     int num_shards) {
  if (num_shards < 1 || num_shards > kMaxShards) {
    std::fprintf(stderr, "espbench: %d shards cannot be traced\n",
                 num_shards);
    _exit(3);
  }
  if (g_routing == nullptr) g_routing = new ShardRouting();
  g_routing->receptor_column = std::move(receptor_column);
  g_routing->receptor_shard = std::move(receptor_shard);
  g_routing->num_shards = num_shards;
}

int64_t SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (span.id == 0) span.id = next_id_++;
  const int64_t id = span.id;
  spans_.push_back(std::move(span));
  return id;
}

int64_t SpanLog::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\ttick\tname\tstart_ns\tend_ns\tself_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%lld\t%lld\t%lld\t%s\t%lld\t%lld\t%lld\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.tick), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.self_ns));
  }
  return std::fclose(f) == 0;
}

SpanLog& Spans() {
  static SpanLog* log = new SpanLog();
  return *log;
}

Status TracedEngine::Push(const std::string& device_type, Tuple raw) {
  const int64_t start = NowNs();
  Status status = inner_->Push(device_type, std::move(raw));
  pending_push_ns_ += NowNs() - start;
  ++pending_pushes_;
  return status;
}

StatusOr<TickResult> TracedEngine::Tick(Timestamp now) {
  const int64_t tick_span = Spans().NextId();
  const int64_t tick = ++tick_counter_;
  const int64_t start = NowNs();
  StatusOr<TickResult> result = inner_->Tick(now);
  const int64_t end = NowNs();

  if (!Enabled()) return result;

  // Stage time per slot of this process since the previous tick. Pool
  // threads are idle between ticks, so their counters are quiescent here.
  TickBreakdown b;
  b.tick = tick;
  b.wall_ns = end - start;
  b.push_ns = pending_push_ns_;
  b.pushes = pending_pushes_;
  pending_push_ns_ = 0;
  pending_pushes_ = 0;
  const int32_t used = std::min(g_region->next_slot.load(), kMaxSlots);
  last_slot_kinds_.resize(used, AllKinds{});
  const int64_t me = getpid();
  AllKinds kind_delta{};
  // Per-group stages (point, smooth, merge) run on whichever thread holds
  // the shard; the wrapper stages (arbitrate, virtualize) on the caller.
  int64_t wrapper_ns = 0;
  for (int32_t s = 0; s < used; ++s) {
    const SharedSlot& slot = g_region->slots[s];
    if (slot.pid.load() != me) continue;
    int64_t group_ns = 0;
    for (int k = 0; k < kNumKinds; ++k) {
      const KindTotals t = Load(slot.kinds[k]);
      KindTotals& last = last_slot_kinds_[s][k];
      const int64_t busy =
          (t.push_ns - last.push_ns) + (t.eval_ns - last.eval_ns);
      kind_delta[k].push_ns += t.push_ns - last.push_ns;
      kind_delta[k].eval_ns += t.eval_ns - last.eval_ns;
      kind_delta[k].rows_in += t.rows_in - last.rows_in;
      kind_delta[k].rows_out += t.rows_out - last.rows_out;
      kind_delta[k].evals += t.evals - last.evals;
      last = t;
      if (k == static_cast<int>(StageKind::kArbitrate) ||
          k == static_cast<int>(StageKind::kVirtualize)) {
        wrapper_ns += busy;
      } else {
        group_ns += busy;
      }
    }
    b.pool_max_ns = std::max(b.pool_max_ns, group_ns);
  }
  b.stage_path_ns = wrapper_ns + b.pool_max_ns;
  if (g_routing != nullptr) {
    // Per shard, not per thread: the caller may drain several shards.
    const int shards = g_routing->num_shards;
    last_shard_ns_.resize(shards, 0);
    int64_t shard_sum = 0;
    for (int s = 0; s < shards; ++s) {
      const int64_t total =
          g_routing->busy_ns[s].load(std::memory_order_relaxed);
      const int64_t busy = total - last_shard_ns_[s];
      last_shard_ns_[s] = total;
      b.shard_max_ns = std::max(b.shard_max_ns, busy);
      shard_sum += busy;
    }
    b.shard_mean_ns = shard_sum / shards;
  }
  ticks_.push_back(b);

  Spans().Add({"engine.tick", start, end, tick_span, parent_span_, tick,
               b.wall_ns - b.stage_path_ns});
  for (int k = 0; k < kNumKinds; ++k) {
    const int64_t busy = kind_delta[k].push_ns + kind_delta[k].eval_ns;
    if (busy == 0 && kind_delta[k].evals == 0) continue;
    Spans().Add({std::string("stage.") + KindName(k), start, start + busy, 0,
                 tick_span, tick, busy});
  }
  last_tick_span_ = tick_span;
  return result;
}

Status TracedEngine::Checkpoint(esp::core::CheckpointWriter& out) const {
  const int64_t start = NowNs();
  Status status = inner_->Checkpoint(out);
  const int64_t end = NowNs();
  // The RecoveryCoordinator checkpoints right after the tick it covers.
  if (!ticks_.empty()) {
    const_cast<TracedEngine*>(this)->ticks_.back().checkpointed = true;
  }
  Spans().Add({"engine.checkpoint", start, end, 0,
               parent_span_ != 0 ? parent_span_ : last_tick_span_,
               tick_counter_, end - start});
  return status;
}

Status TracedEngine::RegisterQuery(const std::string& tenant,
                                   const std::string& name,
                                   const std::string& query_text) {
  const int64_t start = NowNs();
  Status status = inner_->RegisterQuery(tenant, name, query_text);
  register_ns_.push_back(NowNs() - start);
  return status;
}

Status TracedSink::Push(const std::string& device_type, Tuple raw) {
  const int64_t start = NowNs();
  const int64_t cpu = ThreadCpuNs();
  Status status = inner_->Push(device_type, std::move(raw));
  pending_sink_cpu_ns_ += ThreadCpuNs() - cpu;
  pending_push_ns_ += NowNs() - start;
  ++pending_pushes_;
  return status;
}

StatusOr<TickResult> TracedSink::Tick(Timestamp now) {
  // Runs on the server's event-loop thread: its CPU clock is the server's.
  const int64_t span = Spans().NextId();
  const int64_t start = NowNs();
  const int64_t cpu_start = ThreadCpuNs();
  engine_->SetParentSpan(span);
  StatusOr<TickResult> result = inner_->Tick(now);
  const int64_t end = NowNs();
  const int64_t cpu = ThreadCpuNs();
  SinkTick t;
  t.sink_tick_ns = end - start;
  t.sink_push_ns = pending_push_ns_;
  t.pushes = pending_pushes_;
  t.sink_cpu_ns = pending_sink_cpu_ns_ + (cpu - cpu_start);
  t.server_cpu_ns = last_server_cpu_ns_ >= 0 ? cpu - last_server_cpu_ns_ : 0;
  last_server_cpu_ns_ = cpu;
  pending_push_ns_ = 0;
  pending_sink_cpu_ns_ = 0;
  pending_pushes_ = 0;
  ticks_.push_back(t);
  ++tick_counter_;
  const int64_t engine_wall =
      engine_->ticks().empty() ? 0 : engine_->ticks().back().wall_ns;
  Spans().Add({"sink.tick", start, end, span, 0, tick_counter_,
               t.sink_tick_ns - engine_wall});
  return result;
}

}  // namespace espbench::trace
