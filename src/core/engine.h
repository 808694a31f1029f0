#ifndef ESP_CORE_ENGINE_H_
#define ESP_CORE_ENGINE_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "core/checkpoint.h"
#include "core/health.h"
#include "cql/query_registry.h"
#include "stream/tuple.h"

namespace esp::core {

/// \brief One proximity group's post-Merge, pre-Arbitrate relation — the
/// partial aggregate a cluster worker ships to the coordinator, which
/// reassembles partials in global group-registration order before running
/// the cross-group Arbitrate (docs/DISTRIBUTED.md).
struct GroupPartial {
  std::string device_type;
  std::string group_id;
  stream::Relation relation;
};

/// \brief One tick's cleaned outputs: the final relation per device type
/// (after Arbitrate), in pipeline registration order, plus the Virtualize
/// output when that stage is installed. With SetExportGroupPartials(true)
/// the tick stops at Merge instead: `group_partials` holds the per-group
/// Merge outputs in (type, group) registration order and every other field
/// is empty.
struct TickResult {
  std::vector<std::pair<std::string, stream::Relation>> per_type;
  std::optional<stream::Relation> virtualized;
  std::vector<GroupPartial> group_partials;
  /// Standing-query results, one per live subscription in registration
  /// order (multi-tenant serving layer, cql/query_registry.h). Empty
  /// unless subscriptions are registered.
  std::vector<cql::SubscriptionResult> query_results;
};

/// \brief The surface a pipeline execution engine exposes to the layers
/// above it — the durability coordinator, benchmarks, and deployments.
///
/// Two implementations exist: the single-threaded EspProcessor and the
/// ShardedEspProcessor, which partitions proximity groups across internal
/// shards and runs them in parallel while producing bitwise-identical
/// output. (The forked-worker cluster::ClusterCoordinator is a third
/// engine with its own driving surface.) All three run everything after
/// Merge through one EngineTail (core/engine_tail.h), so they differ only
/// in where per-group work runs. Everything written against this interface
/// (notably RecoveryCoordinator's journal-before-apply protocol) works with
/// either implementation.
class StreamEngine {
 public:
  virtual ~StreamEngine() = default;

  /// Routes one raw reading toward its receptor's chain. See
  /// EspProcessor::Push for the (previous tick, now] timestamp contract.
  virtual Status Push(const std::string& device_type, stream::Tuple raw) = 0;

  /// Runs the full cascade at time `now`. Tick times must be
  /// non-decreasing.
  virtual StatusOr<TickResult> Tick(Timestamp now) = 0;

  /// When enabled, Tick stops after Merge: it moves each proximity group's
  /// post-Merge relation into TickResult::group_partials and runs no Union,
  /// Arbitrate, Virtualize or query serving, so those stages' state does
  /// not advance. Cluster workers turn this on (their pipelines have
  /// Arbitrate stripped and no Virtualize or subscriptions, so their tail
  /// holds no state); the coordinator reassembles the partials across
  /// workers and runs the tail centrally. Off by default; call before or
  /// between ticks.
  virtual void SetExportGroupPartials(bool enabled) = 0;

  /// True once a tick has run (including via Restore of a ticked snapshot).
  virtual bool has_ticked() const = 0;

  /// Time of the most recent tick; meaningful only when has_ticked().
  virtual Timestamp last_tick() const = 0;

  /// Raw-reading schema of one device type (as configured in its pipeline).
  virtual StatusOr<stream::SchemaRef> TypeReadingSchema(
      const std::string& device_type) const = 0;

  /// Serializes the full mutable runtime state into named sections of
  /// `out`; the configuration is fingerprinted, not serialized
  /// (docs/RECOVERY.md).
  virtual Status Checkpoint(CheckpointWriter& out) const = 0;

  /// Restores state saved by Checkpoint() into this engine, which must be
  /// identically configured and started.
  virtual Status Restore(const CheckpointReader& in) = 0;

  /// Durability counters, written by the RecoveryCoordinator and reported
  /// through Health().
  virtual RecoveryStats& mutable_recovery_stats() = 0;

  /// Networked-ingest counters reported through Health() when no
  /// IngestStatsSource is installed (direct writes — tests, replay).
  virtual IngestStats& mutable_ingest_stats() = 0;

  /// Installs (or replaces) the pull source Health() reads its ingest
  /// counters from. net::IngestServer installs a thread-safe live snapshot
  /// at Start() and freezes the final counters at Stop(), so Health() is
  /// safe to call from any thread while the server runs. An empty source
  /// falls back to mutable_ingest_stats(). Must be thread-safe against
  /// concurrent Health() calls.
  virtual void SetIngestStatsSource(IngestStatsSource source) = 0;

  /// Snapshot of per-receptor liveness and per-stage error-isolation
  /// tallies. Threading: the ingest counters are pulled through the
  /// thread-safe IngestStatsSource and may be observed from any thread at
  /// any time; the receptor/stage aggregation reads engine state and shares
  /// Push/Tick's single-threaded contract — don't call concurrently with
  /// them (observe after the driving thread quiesces, e.g. after
  /// IngestServer::Stop()).
  virtual PipelineHealth Health() const = 0;

  /// Registers a standing CQL subscription for `tenant` over the engine's
  /// cleaned per-type output streams (the pipelines' virtualize_input
  /// names). Subsequent Ticks carry its result in
  /// TickResult::query_results. Typed errors per
  /// cql::QueryRegistry::Register; engines that do not serve queries
  /// return kUnimplemented. Valid after the engine is started; shares the
  /// Push/Tick single-threaded contract.
  virtual Status RegisterQuery(const std::string& tenant,
                               const std::string& name,
                               const std::string& query_text) {
    (void)tenant;
    (void)name;
    (void)query_text;
    return Status::Unimplemented("this engine does not serve queries");
  }

  /// Removes a live subscription (kNotFound when absent).
  virtual Status UnregisterQuery(const std::string& name) {
    (void)name;
    return Status::Unimplemented("this engine does not serve queries");
  }

  /// Installs a per-tenant admission budget (cql/query_registry.h).
  virtual Status SetTenantBudgets(const std::string& tenant,
                                  const cql::TenantBudgets& budgets) {
    (void)tenant;
    (void)budgets;
    return Status::Unimplemented("this engine does not serve queries");
  }
};

}  // namespace esp::core

#endif  // ESP_CORE_ENGINE_H_
