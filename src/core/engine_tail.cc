#include "core/engine_tail.h"

#include <utility>

#include "common/string_util.h"
#include "stream/arena.h"
#include "stream/ops.h"

namespace esp::core {

using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;

namespace {

void RecordStageError(std::map<std::string, StageErrorStat>& errors,
                      const Stage* stage, const std::string& device_type,
                      const std::string& owner_id, const Status& status) {
  const std::string label = device_type + "/" +
                            StageKindToString(stage->kind()) + "[" + owner_id +
                            "]";
  StageErrorStat& stat = errors[label];
  stat.stage = label;
  ++stat.errors;
  stat.last_message = status.ToString();
}

}  // namespace

Status EngineTail::AddPipeline(DeviceTypePipeline pipeline) {
  if (pipeline.reading_schema == nullptr) {
    return Status::InvalidArgument("pipeline for '" + pipeline.device_type +
                                   "' has no reading schema");
  }
  if (!pipeline.reading_schema->Contains(pipeline.receptor_id_column)) {
    return Status::InvalidArgument(
        "receptor id column '" + pipeline.receptor_id_column +
        "' not in reading schema for '" + pipeline.device_type + "'");
  }
  if (FindType(pipeline.device_type).ok()) {
    return Status::AlreadyExists("pipeline for '" + pipeline.device_type +
                                 "' already registered");
  }
  if (pipeline.virtualize_input.empty()) {
    pipeline.virtualize_input = pipeline.device_type + "_input";
  }
  types_.push_back(TypeTail{std::move(pipeline), nullptr, nullptr});
  return Status::OK();
}

Status EngineTail::SetHealthPolicy(HealthPolicy policy) {
  if (policy.liveness_enabled() &&
      policy.staleness_threshold <= policy.lateness_horizon) {
    return Status::InvalidArgument(
        "staleness threshold must exceed the lateness horizon (admitted-late "
        "readings make live receptors look up to one horizon stale)");
  }
  policy_ = policy;
  return Status::OK();
}

StatusOr<size_t> EngineTail::FindType(const std::string& device_type) const {
  for (size_t i = 0; i < types_.size(); ++i) {
    if (StrEqualsIgnoreCase(types_[i].config.device_type, device_type)) {
      return i;
    }
  }
  return Status::NotFound("no pipeline for device type '" + device_type +
                          "'");
}

StatusOr<SchemaRef> EngineTail::ReadingSchema(
    const std::string& device_type) const {
  ESP_ASSIGN_OR_RETURN(const size_t type, FindType(device_type));
  return types_[type].config.reading_schema;
}

StatusOr<SchemaRef> EngineTail::OutputSchema(
    const std::string& device_type) const {
  ESP_ASSIGN_OR_RETURN(const size_t type, FindType(device_type));
  if (!started_) return Status::Internal("processor not started");
  return types_[type].output_schema;
}

StatusOr<EngineTail::Reading> EngineTail::ValidateReading(
    const std::string& device_type, const Tuple& raw) const {
  ESP_ASSIGN_OR_RETURN(const size_t type, FindType(device_type));
  const DeviceTypePipeline& config = types_[type].config;
  // Pointer identity short-circuits the field-by-field comparison on the
  // common path where the pusher holds the pipeline's own SchemaRef.
  if (raw.schema() == nullptr ||
      (raw.schema().get() != config.reading_schema.get() &&
       !raw.schema()->Equals(*config.reading_schema))) {
    return Status::TypeError("raw reading schema mismatch for type '" +
                             device_type + "'");
  }
  ESP_ASSIGN_OR_RETURN(Value receptor, raw.Get(config.receptor_id_column));
  if (receptor.type() != stream::DataType::kString) {
    return Status::TypeError("receptor id column must be a string");
  }
  return Reading{type, std::move(receptor)};
}

Status EngineTail::UnknownReceptor(const std::string& receptor,
                                   const std::string& device_type) {
  return Status::NotFound("receptor '" + receptor + "' of type '" +
                          device_type + "' is in no proximity group");
}

std::string EngineTail::ReceptorKey(const std::string& device_type,
                                    const std::string& receptor_id) {
  std::string key;
  key.reserve(device_type.size() + 1 + receptor_id.size());
  key += device_type;
  key.push_back('\0');
  key += receptor_id;
  return key;
}

Status EngineTail::Start(const std::vector<SchemaRef>& group_output_schemas) {
  cql::SchemaCatalog virtualize_inputs;
  for (size_t i = 0; i < types_.size(); ++i) {
    TypeTail& type = types_[i];
    type.output_schema = group_output_schemas[i];
    if (type.config.arbitrate != nullptr) {
      ESP_ASSIGN_OR_RETURN(type.arbitrate, type.config.arbitrate());
      cql::SchemaCatalog catalog;
      catalog.AddStream(StageInputName(StageKind::kArbitrate),
                        group_output_schemas[i]);
      ESP_RETURN_IF_ERROR(type.arbitrate->Bind(catalog));
      type.output_schema = type.arbitrate->output_schema();
    }
    virtualize_inputs.AddStream(type.config.virtualize_input,
                                type.output_schema);
  }
  if (virtualize_ != nullptr) {
    ESP_RETURN_IF_ERROR(virtualize_->Bind(virtualize_inputs));
  }
  started_ = true;
  return Status::OK();
}

StatusOr<Relation> EngineTail::RunStageGuarded(
    Stage* stage, const std::string& input_name, Relation input, Timestamp now,
    const std::string& device_type, const std::string& owner_id,
    ReceptorHealthTracker* receptor) {
  stream::TupleArena& arena = stream::TupleArena::Local();
  auto run = [&]() -> StatusOr<Relation> {
    for (const Tuple& tuple : input.tuples()) {
      // Hand the stage an arena-backed copy: stage buffers (query histories,
      // windowed buffers) release evicted rows back to the arena, closing
      // the per-tick allocation loop. `input` stays intact for the degraded
      // pass-through below.
      std::vector<Value> values = arena.Acquire(tuple.num_fields());
      values.insert(values.end(), tuple.values().begin(),
                    tuple.values().end());
      ESP_RETURN_IF_ERROR(stage->Push(
          input_name,
          Tuple(tuple.schema(), std::move(values), tuple.timestamp())));
    }
    return stage->Evaluate(now);
  };
  StatusOr<Relation> out = run();
  if (out.ok()) {
    arena.Recycle(std::move(input));
    return out;
  }
  if (policy_.stage_error_policy == StageErrorPolicy::kFailFast) {
    return out.status();
  }
  RecordStageError(stage_errors_, stage, device_type, owner_id, out.status());
  if (receptor != nullptr) receptor->RecordError(out.status());
  // Degrade: pass the input through when it already has the stage's output
  // shape; otherwise the stage contributes nothing this tick.
  if (input.schema() != nullptr && stage->output_schema() != nullptr &&
      input.schema()->Equals(*stage->output_schema())) {
    return input;
  }
  return Relation(stage->output_schema());
}

Status EngineTail::Run(MergedGroups groups, Timestamp now,
                       TickResult& result) {
  const bool fail_fast =
      policy_.stage_error_policy == StageErrorPolicy::kFailFast;
  for (size_t i = 0; i < types_.size(); ++i) {
    TypeTail& type = types_[i];
    const std::string& device_type = type.config.device_type;
    // Union preserves global timestamp order for downstream windows, and
    // its stable sort keeps group-registration order among equal
    // timestamps — so the result does not depend on where groups ran.
    ESP_ASSIGN_OR_RETURN(Relation type_out,
                         stream::Union(std::move(groups[i])));
    if (type.arbitrate != nullptr) {
      ESP_ASSIGN_OR_RETURN(
          type_out, RunStageGuarded(type.arbitrate.get(),
                                    StageInputName(StageKind::kArbitrate),
                                    std::move(type_out), now, device_type,
                                    device_type));
    }
    if (virtualize_ != nullptr) {
      for (const Tuple& tuple : type_out.tuples()) {
        const Status pushed =
            virtualize_->Push(type.config.virtualize_input, tuple);
        if (!pushed.ok()) {
          if (fail_fast) return pushed;
          RecordStageError(stage_errors_, virtualize_.get(), device_type,
                           type.config.virtualize_input, pushed);
          break;  // Skip the rest of this type's feed this tick.
        }
      }
    }
    result.per_type.emplace_back(device_type, std::move(type_out));
  }

  if (queries_.active()) {
    std::vector<std::pair<std::string, const Relation*>> inputs;
    inputs.reserve(types_.size());
    for (size_t i = 0; i < types_.size(); ++i) {
      inputs.emplace_back(types_[i].config.virtualize_input,
                          &result.per_type[i].second);
    }
    ESP_ASSIGN_OR_RETURN(result.query_results,
                         queries_.FeedAndTick(inputs, now));
  }

  if (virtualize_ != nullptr) {
    StatusOr<Relation> out = virtualize_->Evaluate(now);
    if (out.ok()) {
      result.virtualized = std::move(out).value();
    } else if (fail_fast) {
      return out.status();
    } else {
      RecordStageError(stage_errors_, virtualize_.get(), "virtualize",
                       "virtualize", out.status());
      result.virtualized = Relation(virtualize_->output_schema());
    }
  }
  return Status::OK();
}

QueryServingLayer::StreamLister EngineTail::QueryStreams() const {
  return [this]() -> StatusOr<
                      std::vector<std::pair<std::string, SchemaRef>>> {
    if (!started_) return Status::Internal("processor not started");
    std::vector<std::pair<std::string, SchemaRef>> streams;
    streams.reserve(types_.size());
    for (const TypeTail& type : types_) {
      streams.emplace_back(type.config.virtualize_input, type.output_schema);
    }
    return streams;
  };
}

Status EngineTail::RegisterQuery(const std::string& tenant,
                                 const std::string& name,
                                 const std::string& query_text) {
  if (!started_) return Status::Internal("processor not started");
  return queries_.Register(QueryStreams(), tenant, name, query_text);
}

int64_t EngineTail::total_stage_errors() const {
  int64_t total = 0;
  for (const auto& [label, stat] : stage_errors_) total += stat.errors;
  return total;
}

size_t EngineTail::BufferedTuples() const {
  size_t total = queries_.BufferedTuples();
  for (const TypeTail& type : types_) {
    if (type.arbitrate != nullptr) total += type.arbitrate->buffered();
  }
  if (virtualize_ != nullptr) total += virtualize_->buffered();
  return total;
}

void EngineTail::WriteConfig(ByteWriter& config) const {
  config.WriteBool(virtualize_ != nullptr);
  config.WriteI64(policy_.staleness_threshold.micros());
  config.WriteI64(policy_.quarantine_timeout.micros());
  config.WriteI64(policy_.revival_backoff.micros());
  config.WriteI64(policy_.max_revival_backoff.micros());
  config.WriteI64(policy_.lateness_horizon.micros());
  config.WriteU8(static_cast<uint8_t>(policy_.stage_error_policy));
}

Status EngineTail::Save(CheckpointWriter& out,
                        const GroupBlobWriter& group_blobs) const {
  ByteWriter stages;
  for (size_t i = 0; i < types_.size(); ++i) {
    if (group_blobs) ESP_RETURN_IF_ERROR(group_blobs(i, stages));
    if (types_[i].arbitrate != nullptr) {
      ESP_RETURN_IF_ERROR(SaveStageBlob(types_[i].arbitrate.get(), stages));
    }
  }
  if (virtualize_ != nullptr) {
    ESP_RETURN_IF_ERROR(SaveStageBlob(virtualize_.get(), stages));
  }
  out.AddSection("stages", std::move(stages));

  ByteWriter errors;
  errors.WriteU32(static_cast<uint32_t>(stage_errors_.size()));
  for (const auto& [label, stat] : stage_errors_) {
    errors.WriteString(label);
    errors.WriteI64(stat.errors);
    errors.WriteString(stat.last_message);
  }
  out.AddSection("errors", std::move(errors));

  // The serving layer (absent while no subscriptions exist; not part of
  // the config fingerprint — subscriptions are runtime state).
  queries_.Checkpoint(out);
  return Status::OK();
}

Status EngineTail::Load(const CheckpointReader& in,
                        const GroupBlobReader& group_blobs) {
  {
    ESP_ASSIGN_OR_RETURN(const std::string_view payload,
                         in.Section("stages"));
    ByteReader r(payload);
    for (size_t i = 0; i < types_.size(); ++i) {
      if (group_blobs) ESP_RETURN_IF_ERROR(group_blobs(i, r));
      if (types_[i].arbitrate != nullptr) {
        ESP_RETURN_IF_ERROR(LoadStageBlob(types_[i].arbitrate.get(), r));
      }
    }
    if (virtualize_ != nullptr) {
      ESP_RETURN_IF_ERROR(LoadStageBlob(virtualize_.get(), r));
    }
    if (!r.exhausted()) {
      return Status::ParseError("stages section has trailing bytes");
    }
  }
  {
    ESP_ASSIGN_OR_RETURN(const std::string_view payload,
                         in.Section("errors"));
    ByteReader r(payload);
    ESP_ASSIGN_OR_RETURN(const uint32_t count, r.ReadU32());
    stage_errors_.clear();
    for (uint32_t i = 0; i < count; ++i) {
      ESP_ASSIGN_OR_RETURN(std::string label, r.ReadString());
      StageErrorStat stat;
      stat.stage = label;
      ESP_ASSIGN_OR_RETURN(stat.errors, r.ReadI64());
      ESP_ASSIGN_OR_RETURN(stat.last_message, r.ReadString());
      stage_errors_.emplace(std::move(label), std::move(stat));
    }
    if (!r.exhausted()) {
      return Status::ParseError("errors section has trailing bytes");
    }
  }
  // Absent in snapshots without subscriptions.
  return queries_.Restore(in, QueryStreams());
}

}  // namespace esp::core
