#ifndef ESP_CORE_SHARDED_PROCESSOR_H_
#define ESP_CORE_SHARDED_PROCESSOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/time.h"
#include "core/engine.h"
#include "core/processor.h"
#include "core/query_serving.h"

namespace esp::core {

/// \brief A StreamEngine that partitions the deployment's proximity groups
/// across N internal EspProcessor shards and ticks them in parallel on a
/// thread pool, while producing output bitwise-identical to a single
/// EspProcessor over the same inputs.
///
/// Why this is exact and not approximate: every pipeline stage up to and
/// including Merge is local to one receptor or one proximity group, and
/// receptors never migrate between groups of different shards (quarantine
/// parks a receptor in a shard-local parking group). Each type's groups are
/// partitioned into contiguous blocks in registration order, so the shards'
/// post-Merge relations, taken in shard order, are the single processor's
/// groups in registration order. The shards stop at Merge
/// (EspProcessor::TickGroups); this wrapper hands their relations to the
/// same EngineTail the single processor runs — Union, Arbitrate,
/// Virtualize, and query serving.
///
/// The parallel win on top of the pipeline parallelism: Push's linear
/// receptor scan and Tick's per-receptor group routing shrink by the shard
/// count, so even on one core a sharded engine over R receptors beats the
/// monolith once R is large (docs/PERFORMANCE.md).
///
/// Configuration mirrors EspProcessor: AddProximityGroup / AddPipeline /
/// SetHealthPolicy / SetVirtualize, then Start(). Checkpoint/Restore
/// snapshot every shard plus the wrapper's own stages, so the
/// RecoveryCoordinator drives either engine unchanged.
class ShardedEspProcessor : public StreamEngine {
 public:
  struct Options {
    /// Number of internal shards. Groups are spread contiguously; shards
    /// beyond the group count of every type simply idle.
    size_t num_shards = 2;

    /// Pool to tick shards on; must outlive the processor and have been
    /// created with at least one thread for any parallelism to materialize.
    /// When null the processor creates a private pool of num_shards threads
    /// at Start().
    ThreadPool* pool = nullptr;
  };

  explicit ShardedEspProcessor(Options options);
  ShardedEspProcessor(const ShardedEspProcessor&) = delete;
  ShardedEspProcessor& operator=(const ShardedEspProcessor&) = delete;

  Status AddProximityGroup(ProximityGroup group);
  Status AddPipeline(DeviceTypePipeline pipeline);
  Status SetHealthPolicy(HealthPolicy policy);
  const HealthPolicy& health_policy() const { return tail_.policy(); }
  void SetVirtualize(std::unique_ptr<Stage> stage) {
    tail_.SetVirtualize(std::move(stage));
  }

  /// Partitions groups, builds the shards, binds the wrapper's Arbitrate
  /// and Virtualize stages, and freezes configuration.
  Status Start();

  size_t num_shards() const { return options_.num_shards; }

  // StreamEngine:
  Status Push(const std::string& device_type, stream::Tuple raw) override;
  StatusOr<TickResult> Tick(Timestamp now) override;
  /// See StreamEngine::SetExportGroupPartials. The shards' post-Merge
  /// relations, reassembled in global group-registration order, become
  /// TickResult::group_partials.
  void SetExportGroupPartials(bool enabled) override {
    export_group_partials_ = enabled;
  }
  bool has_ticked() const override { return has_ticked_; }
  Timestamp last_tick() const override { return last_tick_; }
  StatusOr<stream::SchemaRef> TypeReadingSchema(
      const std::string& device_type) const override;
  Status Checkpoint(CheckpointWriter& out) const override;
  Status Restore(const CheckpointReader& in) override;
  RecoveryStats& mutable_recovery_stats() override { return recovery_stats_; }
  IngestStats& mutable_ingest_stats() override { return ingest_stats_; }
  void SetIngestStatsSource(IngestStatsSource source) override {
    std::lock_guard<std::mutex> lock(ingest_source_mu_);
    ingest_source_ = std::move(source);
  }
  PipelineHealth Health() const override;

  /// Cleaned-output schema of one device type; valid after Start().
  StatusOr<stream::SchemaRef> TypeOutputSchema(
      const std::string& device_type) const;

  /// Total tuples buffered across every shard and the wrapper's stages.
  size_t BufferedTuples() const;

  /// Standing-query serving over the final (post-Arbitrate) per-type
  /// outputs — the serving layer lives in the wrapper, where those streams
  /// are reassembled, never in the shards. See EspProcessor.
  Status SetQueryServingOptions(cql::QueryRegistry::Options options) {
    return tail_.queries().Configure(std::move(options));
  }
  Status RegisterQuery(const std::string& tenant, const std::string& name,
                       const std::string& query_text) override {
    return tail_.RegisterQuery(tenant, name, query_text);
  }
  Status UnregisterQuery(const std::string& name) override {
    return tail_.UnregisterQuery(name);
  }
  Status SetTenantBudgets(const std::string& tenant,
                          const cql::TenantBudgets& budgets) override {
    return tail_.SetTenantBudgets(tenant, budgets);
  }
  QueryServingLayer& query_serving() { return tail_.queries(); }

 private:
  /// One shard hosting groups of a device type, and the type's index
  /// among that shard's pipelines.
  struct Host {
    size_t shard = 0;
    size_t local_type = 0;
  };

  /// Deterministic byte string identifying the deployed topology, policy,
  /// and shard count; Restore refuses snapshots whose fingerprint differs.
  ByteWriter ConfigFingerprint() const;

  Options options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  // == options_.pool or owned_pool_.get().

  /// Staging registry (registration-ordered); used to validate, partition,
  /// and build the routing map. Not updated by shard-local quarantine moves.
  GranuleMap staged_granules_;
  /// Pipelines, health policy, Arbitrate / Virtualize, wrapper stage-error
  /// tallies (shard-local labels live in the shards and are merged by
  /// Health()), and query serving.
  EngineTail tail_;
  /// Per type (tail order): its hosting shards, ascending.
  std::vector<std::vector<Host>> hosts_;
  /// Per type (tail order): its group ids in registration order, naming
  /// the exported group partials.
  std::vector<std::vector<std::string>> group_ids_;

  std::vector<std::unique_ptr<EspProcessor>> shards_;
  /// (device_type '\0' receptor_id) -> shard index, case-insensitive.
  std::unordered_map<std::string, size_t, AsciiCaseHash, AsciiCaseEq>
      receptor_shard_;

  RecoveryStats recovery_stats_;
  IngestStats ingest_stats_;
  /// Guards ingest_source_ against Health() racing the ingest server's
  /// install/freeze (see engine.h).
  mutable std::mutex ingest_source_mu_;
  IngestStatsSource ingest_source_;
  bool started_ = false;
  bool has_ticked_ = false;
  bool export_group_partials_ = false;
  Timestamp last_tick_;
};

}  // namespace esp::core

#endif  // ESP_CORE_SHARDED_PROCESSOR_H_
