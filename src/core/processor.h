#ifndef ESP_CORE_PROCESSOR_H_
#define ESP_CORE_PROCESSOR_H_

#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/engine_tail.h"
#include "core/granule.h"
#include "core/health.h"
#include "core/query_serving.h"
#include "core/stage.h"
#include "stream/tuple.h"

namespace esp::core {

/// \brief The ESP Processor: initiates data flow from the receptors and
/// applies each stage in a Fjord-style manner as readings stream through
/// the pipeline (Section 3.3).
///
/// Usage: AddProximityGroup() the deployment's groups, AddPipeline() one
/// config per device type, optionally SetVirtualize(), then Start(). Per
/// tick: Push() raw readings (timestamps within (previous tick, now]), then
/// Tick(now) to run the cascade and obtain each type's cleaned relation
/// plus the virtualized output.
class EspProcessor : public StreamEngine {
 public:
  /// Name of the spatial-granule attribute ESP adds to every stream after
  /// the per-receptor stages.
  static constexpr const char* kSpatialGranuleColumn = "spatial_granule";

  EspProcessor() = default;
  EspProcessor(const EspProcessor&) = delete;
  EspProcessor& operator=(const EspProcessor&) = delete;

  /// Group id under which quarantined receptors of `device_type` are parked
  /// (registered lazily on first quarantine).
  static std::string QuarantineGroupId(const std::string& device_type);

  Status AddProximityGroup(ProximityGroup group);
  Status AddPipeline(DeviceTypePipeline pipeline);

  /// Installs the degraded-mode policy (liveness thresholds, lateness
  /// horizon, stage-error isolation). Must be called before Start(); the
  /// default-constructed policy preserves the strict historical behaviour.
  Status SetHealthPolicy(HealthPolicy policy);
  const HealthPolicy& health_policy() const { return tail_.policy(); }

  /// Installs the cross-device-type Virtualize stage. Its inputs must be
  /// the pipelines' virtualize_input names.
  void SetVirtualize(std::unique_ptr<Stage> stage) {
    tail_.SetVirtualize(std::move(stage));
  }

  /// Instantiates and binds every stage. No further configuration after
  /// this.
  Status Start();

  /// Routes one raw reading to its receptor's chain.
  ///
  /// The reading's timestamp is validated against the `(previous tick, now]`
  /// contract: a reading at or before the release watermark of the previous
  /// tick (last tick minus the policy's lateness horizon) is dropped,
  /// counted in PipelineHealth, and reported as kOutOfRange; a reading that
  /// is late but within the horizon is admitted into the receptor's reorder
  /// buffer and released, in timestamp order, once the watermark passes it.
  Status Push(const std::string& device_type, stream::Tuple raw) override;

  /// One tick's outputs (now shared by every StreamEngine; the nested name
  /// is kept for source compatibility).
  using TickResult = core::TickResult;

  /// Runs the full cascade at time `now`. Tick times must be
  /// non-decreasing.
  StatusOr<TickResult> Tick(Timestamp now) override;

  /// The per-group half of Tick(): releases the reorder buffers and runs
  /// Point, Smooth and Merge, returning each type's post-Merge relations in
  /// group-registration order (the EngineTail's input). Tick() is this
  /// followed by the tail, or, when exporting group partials, by moving
  /// these relations into TickResult::group_partials; ShardedEspProcessor
  /// ticks its shards through it.
  StatusOr<MergedGroups> TickGroups(Timestamp now);

  /// See StreamEngine::SetExportGroupPartials.
  void SetExportGroupPartials(bool enabled) override {
    export_group_partials_ = enabled;
  }

  /// True once a tick has run (including via Restore of a ticked snapshot).
  bool has_ticked() const override { return has_ticked_; }

  /// Time of the most recent tick; meaningful only when has_ticked().
  Timestamp last_tick() const override { return last_tick_; }

  /// Cleaned-output schema of one device type; valid after Start().
  StatusOr<stream::SchemaRef> TypeOutputSchema(
      const std::string& device_type) const;

  /// Raw-reading schema of one device type (as configured in its pipeline).
  StatusOr<stream::SchemaRef> TypeReadingSchema(
      const std::string& device_type) const override;

  /// Total tuples buffered across every stage's windows plus un-ticked raw
  /// readings — bounded in steady state by window sizes, not stream length.
  size_t BufferedTuples() const;

  /// Snapshot of per-receptor liveness and per-stage error-isolation
  /// tallies. Valid after Start(); cheap enough to poll every tick.
  PipelineHealth Health() const override;

  /// Serializes the full mutable runtime state — reorder buffers, every
  /// stage's window/model state, receptor health, dynamic group
  /// assignments, stage-error tallies, and the tick clock — into named
  /// sections of `out` (docs/RECOVERY.md). Valid after Start(). The
  /// deployment configuration is NOT serialized; a config fingerprint is,
  /// so Restore() can reject snapshots from a different deployment.
  Status Checkpoint(CheckpointWriter& out) const override;

  /// Restores state saved by Checkpoint() into this processor, which must
  /// be identically configured and Start()ed (typically rebuilt from the
  /// same deployment spec). After Restore the processor behaves
  /// tick-for-tick identically to the one that was checkpointed.
  Status Restore(const CheckpointReader& in) override;

  /// Durability counters, written by the RecoveryCoordinator and reported
  /// through Health().
  RecoveryStats& mutable_recovery_stats() override { return recovery_stats_; }

  /// Networked-ingest counters reported through Health() when no source is
  /// installed (direct writes — tests, replay).
  IngestStats& mutable_ingest_stats() override { return ingest_stats_; }

  void SetIngestStatsSource(IngestStatsSource source) override {
    std::lock_guard<std::mutex> lock(ingest_source_mu_);
    ingest_source_ = std::move(source);
  }

  const GranuleMap& granules() const { return granules_; }

  /// Configures the multi-tenant serving layer (sharing toggles, default
  /// budgets) before the first subscription is registered. The deployment
  /// loader calls this for the [tenants] section.
  Status SetQueryServingOptions(cql::QueryRegistry::Options options) {
    return tail_.queries().Configure(std::move(options));
  }

  /// Standing-query serving over the per-type cleaned output streams (the
  /// pipelines' virtualize_input names). Valid after Start(). See
  /// StreamEngine and cql/query_registry.h.
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

  /// The serving layer itself, for tests and benches (may be inactive).
  QueryServingLayer& query_serving() { return tail_.queries(); }

 private:
  struct ReceptorChain {
    std::string receptor_id;
    std::string granule_id;      // Spatial granule this receptor observes.
    std::string home_group_id;   // Group to rejoin on revival.
    std::vector<std::unique_ptr<Stage>> point;
    std::unique_ptr<Stage> smooth;  // May be null.
    /// Arrival + reorder buffer; tuples are released (sorted) once the tick
    /// watermark passes their timestamp.
    std::vector<stream::Tuple> pending;
    std::unique_ptr<ReceptorHealthTracker> health;  // Created at Start().
  };
  struct GroupChain {
    std::string group_id;
    std::unique_ptr<Stage> merge;  // May be null.
  };
  /// Per-group state of one device type, indexed like the tail's pipelines
  /// (built at Start()).
  struct TypeRuntime {
    const DeviceTypePipeline* config = nullptr;  // Owned by tail_.
    std::vector<ReceptorChain> receptors;
    std::vector<GroupChain> groups;
    stream::SchemaRef augmented_schema;  // Smooth output + spatial_granule.
  };

  /// Appends the spatial_granule attribute (unless already present).
  static StatusOr<stream::SchemaRef> AugmentSchema(
      const stream::SchemaRef& schema);

  /// Registers the per-type quarantine parking group on first use.
  Status EnsureQuarantineGroup(const std::string& device_type);

  GranuleMap granules_;
  /// Pipelines, health policy, Arbitrate / Virtualize, stage-error
  /// tallies, and query serving.
  EngineTail tail_;
  std::vector<TypeRuntime> types_;
  /// Device types whose quarantine group has been registered.
  std::set<std::string> quarantine_groups_;
  RecoveryStats recovery_stats_;
  IngestStats ingest_stats_;
  /// Guards ingest_source_: Health() may run concurrently with the ingest
  /// server installing / freezing its stats source.
  mutable std::mutex ingest_source_mu_;
  IngestStatsSource ingest_source_;
  bool started_ = false;
  bool has_ticked_ = false;
  bool export_group_partials_ = false;
  Timestamp last_tick_;
};

}  // namespace esp::core

#endif  // ESP_CORE_PROCESSOR_H_
