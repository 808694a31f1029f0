#ifndef ESP_CORE_ENGINE_TAIL_H_
#define ESP_CORE_ENGINE_TAIL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "common/time.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/health.h"
#include "core/query_serving.h"
#include "core/stage.h"
#include "stream/tuple.h"

namespace esp::core {

/// \brief Configuration of one device type's cleaning pipeline — which of
/// the five stages are deployed and how (Figure 4). Stages may be omitted
/// (not all stages need be implemented, Section 3.3); omitted stages become
/// pass-throughs.
struct DeviceTypePipeline {
  /// Device type key, matching the proximity groups' device_type.
  std::string device_type;

  /// Schema of the raw readings pushed for this type.
  stream::SchemaRef reading_schema;

  /// Column of `reading_schema` holding the receptor id, used to route raw
  /// readings to per-receptor stage instances.
  std::string receptor_id_column;

  /// Point stages, applied per receptor in order (tuple-level filters and
  /// transforms). May be empty.
  std::vector<StageFactory> point;

  /// Smooth stage, instantiated per receptor (temporal-granule
  /// aggregation). Optional.
  StageFactory smooth;

  /// Merge stage, instantiated per proximity group over the union of its
  /// members' streams (spatial-granule aggregation). Optional — when
  /// omitted, members' streams are unioned unchanged. Either way ESP has
  /// already stamped each tuple with its spatial_granule attribute
  /// (footnote 2 of the paper).
  StageFactory merge;

  /// Arbitrate stage, one instance across all of this type's proximity
  /// groups (conflict resolution between spatial granules). Optional.
  StageFactory arbitrate;

  /// Stream name under which this type's cleaned output feeds the
  /// Virtualize stage; defaults to "<device_type>_input".
  std::string virtualize_input;
};

/// Each device type's post-Merge relations, one per proximity group in
/// group-registration order, indexed like the tail's pipelines.
using MergedGroups = std::vector<std::vector<stream::Relation>>;

/// \brief Everything after Merge, shared by every engine.
///
/// Arbitrate and Virtualize are the only stages that cross proximity
/// groups, so the rest of a tick after Merge is one computation however the
/// per-group work was spread: the monolith runs its groups in-line, the
/// sharded engine on a thread pool, the cluster coordinator in forked
/// workers. Each hands Run() the same MergedGroups and gets the same
/// TickResult. The tail also owns what every engine's front door checks
/// (pipelines, health policy, raw readings), the one stage guard, the
/// ordered stage-error tallies, standing-query serving, and the checkpoint
/// bytes of its stages and tallies.
class EngineTail {
 public:
  /// Writes (reads) one type's per-group stage blobs, which the "stages"
  /// section holds ahead of that type's Arbitrate blob.
  using GroupBlobWriter = std::function<Status(size_t type, ByteWriter&)>;
  using GroupBlobReader = std::function<Status(size_t type, ByteReader&)>;

  /// A raw reading that passed ValidateReading.
  struct Reading {
    size_t type = 0;
    stream::Value receptor;  // Always a string.
  };

  /// Validates `pipeline` (reading schema present and holding the receptor
  /// column, device type not yet registered) and defaults its
  /// virtualize_input.
  Status AddPipeline(DeviceTypePipeline pipeline);

  /// Validates and installs the degraded-mode policy.
  Status SetHealthPolicy(HealthPolicy policy);
  const HealthPolicy& policy() const { return policy_; }

  void SetVirtualize(std::unique_ptr<Stage> stage) {
    virtualize_ = std::move(stage);
  }

  size_t num_types() const { return types_.size(); }
  const DeviceTypePipeline& pipeline(size_t type) const {
    return types_[type].config;
  }
  /// What an engine that stops at Merge runs for this type: the pipeline
  /// without its Arbitrate, which stays in the tail.
  DeviceTypePipeline GroupPipeline(size_t type) const {
    DeviceTypePipeline stripped = types_[type].config;
    stripped.arbitrate = nullptr;
    return stripped;
  }

  /// Index of `device_type` (case-insensitive).
  StatusOr<size_t> FindType(const std::string& device_type) const;

  /// Raw-reading schema, and cleaned-output schema once started.
  StatusOr<stream::SchemaRef> ReadingSchema(
      const std::string& device_type) const;
  StatusOr<stream::SchemaRef> OutputSchema(
      const std::string& device_type) const;

  /// The Push front door every engine shares: known type, matching schema
  /// (pointer identity first, then field by field), string receptor id.
  /// Verdicts name `device_type` as the caller spelled it.
  StatusOr<Reading> ValidateReading(const std::string& device_type,
                                    const stream::Tuple& raw) const;

  /// The verdict for a receptor that is in no proximity group.
  static Status UnknownReceptor(const std::string& receptor,
                                const std::string& device_type);

  /// Key of an engine's receptor routing map: device_type '\0'
  /// receptor_id, not lower-cased — the map's AsciiCaseHash / AsciiCaseEq
  /// match it case-insensitively, so Push allocates no lowered copy.
  static std::string ReceptorKey(const std::string& device_type,
                                 const std::string& receptor_id);

  /// Binds each type's Arbitrate over its post-Merge schema
  /// (`group_output_schemas`, one per type) and Virtualize over the
  /// resulting outputs.
  Status Start(const std::vector<stream::SchemaRef>& group_output_schemas);

  /// Feeds `input` through `stage` and evaluates it at `now`. On a non-OK
  /// stage result under kDegrade, records the error (against
  /// `device_type` / `owner_id`, and `receptor` when the stage belongs to
  /// one) and degrades: the input passes through unchanged when its schema
  /// matches the stage's output schema, otherwise the stage contributes an
  /// empty relation. Under kFailFast the error propagates.
  StatusOr<stream::Relation> RunStageGuarded(
      Stage* stage, const std::string& input_name, stream::Relation input,
      Timestamp now, const std::string& device_type,
      const std::string& owner_id, ReceptorHealthTracker* receptor = nullptr);

  /// The post-Merge half of a tick: per type, the cross-group Union
  /// (concatenation in group order, then a stable sort by timestamp), then
  /// Arbitrate and the Virtualize feed; then query serving and the
  /// Virtualize evaluation. Fills result.per_type, query_results, and
  /// virtualized.
  Status Run(MergedGroups groups, Timestamp now, TickResult& result);

  /// Standing-query serving over the per-type cleaned outputs (the
  /// pipelines' virtualize_input names). Valid after Start().
  QueryServingLayer& queries() { return queries_; }
  const QueryServingLayer& queries() const { return queries_; }
  Status RegisterQuery(const std::string& tenant, const std::string& name,
                       const std::string& query_text);
  Status UnregisterQuery(const std::string& name) {
    return queries_.Unregister(name);
  }
  Status SetTenantBudgets(const std::string& tenant,
                          const cql::TenantBudgets& budgets) {
    return queries_.SetTenantBudgets(tenant, budgets);
  }

  /// Stage-error tallies keyed by "<type>/<Kind>[owner]" (sorted).
  const std::map<std::string, StageErrorStat>& stage_errors() const {
    return stage_errors_;
  }
  int64_t total_stage_errors() const;

  /// Tuples buffered in Arbitrate, Virtualize, and the serving layer.
  size_t BufferedTuples() const;

  /// Appends the tail's part of a config fingerprint: whether Virtualize
  /// is installed, then the health policy.
  void WriteConfig(ByteWriter& config) const;

  /// Adds the "stages" section (per type: `group_blobs`, when set, then
  /// Arbitrate; then Virtualize), the "errors" section, and the serving
  /// layer's "queries" section.
  Status Save(CheckpointWriter& out, const GroupBlobWriter& group_blobs) const;
  Status Load(const CheckpointReader& in, const GroupBlobReader& group_blobs);

 private:
  struct TypeTail {
    DeviceTypePipeline config;
    std::unique_ptr<Stage> arbitrate;  // May be null.
    stream::SchemaRef output_schema;
  };

  QueryServingLayer::StreamLister QueryStreams() const;

  std::vector<TypeTail> types_;
  std::unique_ptr<Stage> virtualize_;
  HealthPolicy policy_;
  std::map<std::string, StageErrorStat> stage_errors_;
  QueryServingLayer queries_;
  bool started_ = false;
};

}  // namespace esp::core

#endif  // ESP_CORE_ENGINE_TAIL_H_
