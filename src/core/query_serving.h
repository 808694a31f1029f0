#ifndef ESP_CORE_QUERY_SERVING_H_
#define ESP_CORE_QUERY_SERVING_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "core/checkpoint.h"
#include "cql/query_registry.h"
#include "stream/tuple.h"

namespace esp::core {

/// \brief The multi-tenant query-serving layer an engine embeds: a lazily
/// created cql::QueryRegistry over the engine's cleaned per-type output
/// streams, plus checkpoint/restore glue.
///
/// The EngineTail every engine runs owns one. The registry is
/// created on the first registration (a deployment with no subscriptions
/// pays nothing) against whatever streams the engine exposes at that
/// moment; configuration (sharing toggles, budgets) installed before then
/// is applied at creation.
class QueryServingLayer {
 public:
  /// Enumerates the streams queries may reference: (stream name, schema)
  /// pairs. Engines bind this to their per-type cleaned-output streams
  /// (the pipelines' virtualize_input names).
  using StreamLister = std::function<StatusOr<
      std::vector<std::pair<std::string, stream::SchemaRef>>>()>;

  /// Replaces the registry options (sharing toggles, default budgets).
  /// kFailedPrecondition once the registry is live — sharing topology is
  /// fixed at first registration.
  Status Configure(cql::QueryRegistry::Options options);

  /// Installs a per-tenant budget override, now or at registry creation.
  Status SetTenantBudgets(const std::string& tenant,
                          cql::TenantBudgets budgets);

  /// Registers / removes one subscription (cql::QueryRegistry semantics:
  /// kAlreadyExists, kResourceExhausted, kNotFound).
  Status Register(const StreamLister& streams, const std::string& tenant,
                  const std::string& name, const std::string& query_text);
  Status Unregister(const std::string& name);

  /// True once the registry exists (any registration ever happened).
  bool active() const { return registry_ != nullptr; }
  cql::QueryRegistry* registry() { return registry_.get(); }

  /// Pushes each relation's tuples to its stream (sorted by timestamp, the
  /// registry's ordering contract) and ticks every subscription at `now`.
  /// No-op returning empty results while inactive.
  StatusOr<std::vector<cql::SubscriptionResult>> FeedAndTick(
      const std::vector<std::pair<std::string, const stream::Relation*>>&
          inputs,
      Timestamp now);

  /// Zeroed stats while inactive.
  cql::QueryServingStats Stats() const;
  size_t BufferedTuples() const;

  /// Adds the "queries" checkpoint section (only while active, so
  /// snapshots from query-less deployments are byte-identical to before
  /// this layer existed). The section is NOT part of the config
  /// fingerprint: subscriptions are runtime state, not topology.
  void Checkpoint(CheckpointWriter& out) const;

  /// Restores the "queries" section. An absent section means the snapshot
  /// had no subscriptions: any live ones are dropped, matching the
  /// checkpointed engine tick-for-tick.
  Status Restore(const CheckpointReader& in, const StreamLister& streams);

 private:
  Status EnsureRegistry(const StreamLister& streams);

  cql::QueryRegistry::Options options_;
  /// Overrides installed before the registry existed, applied at creation.
  std::map<std::string, cql::TenantBudgets> pending_budgets_;
  std::unique_ptr<cql::QueryRegistry> registry_;
};

}  // namespace esp::core

#endif  // ESP_CORE_QUERY_SERVING_H_
