#include "core/processor.h"

#include <algorithm>

#include "common/string_util.h"
#include "stream/arena.h"
#include "stream/column.h"
#include "stream/serialize.h"
#include "stream/simd_kernels.h"

namespace esp::core {

using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;

std::string EspProcessor::QuarantineGroupId(const std::string& device_type) {
  return "__quarantine_" + device_type;
}

Status EspProcessor::AddProximityGroup(ProximityGroup group) {
  if (started_) return Status::Internal("processor already started");
  return granules_.AddGroup(std::move(group));
}

Status EspProcessor::SetHealthPolicy(HealthPolicy policy) {
  if (started_) return Status::Internal("processor already started");
  return tail_.SetHealthPolicy(policy);
}

Status EspProcessor::AddPipeline(DeviceTypePipeline pipeline) {
  if (started_) return Status::Internal("processor already started");
  return tail_.AddPipeline(std::move(pipeline));
}

StatusOr<SchemaRef> EspProcessor::AugmentSchema(const SchemaRef& schema) {
  if (schema->Contains(kSpatialGranuleColumn)) return schema;
  std::vector<stream::Field> fields = schema->fields();
  fields.push_back({kSpatialGranuleColumn, stream::DataType::kString});
  return stream::MakeSchema(std::move(fields));
}

Status EspProcessor::Start() {
  if (started_) return Status::Internal("processor already started");

  types_.resize(tail_.num_types());
  std::vector<SchemaRef> group_outputs;
  for (size_t t = 0; t < types_.size(); ++t) {
    TypeRuntime& type = types_[t];
    type.config = &tail_.pipeline(t);
    const DeviceTypePipeline& config = *type.config;
    const auto groups = granules_.GroupsOfType(config.device_type);
    if (groups.empty()) {
      return Status::InvalidArgument("no proximity groups for device type '" +
                                     config.device_type + "'");
    }

    // Per-receptor chains: Point* -> Smooth.
    SchemaRef receptor_out;
    for (const ProximityGroup* group : groups) {
      for (const std::string& receptor_id : group->receptor_ids) {
        ReceptorChain chain;
        chain.receptor_id = receptor_id;
        chain.granule_id = group->granule.id;
        chain.home_group_id = group->id;
        chain.health = std::make_unique<ReceptorHealthTracker>(
            receptor_id, config.device_type, &tail_.policy());
        SchemaRef current = config.reading_schema;
        for (const StageFactory& factory : config.point) {
          ESP_ASSIGN_OR_RETURN(std::unique_ptr<Stage> stage, factory());
          cql::SchemaCatalog catalog;
          catalog.AddStream(StageInputName(StageKind::kPoint), current);
          ESP_RETURN_IF_ERROR(stage->Bind(catalog));
          current = stage->output_schema();
          chain.point.push_back(std::move(stage));
        }
        if (config.smooth != nullptr) {
          ESP_ASSIGN_OR_RETURN(chain.smooth, config.smooth());
          cql::SchemaCatalog catalog;
          catalog.AddStream(StageInputName(StageKind::kSmooth), current);
          ESP_RETURN_IF_ERROR(chain.smooth->Bind(catalog));
          current = chain.smooth->output_schema();
        }
        if (receptor_out == nullptr) {
          receptor_out = current;
        } else if (!receptor_out->Equals(*current)) {
          return Status::Internal(
              "receptor chains of type '" + config.device_type +
              "' produced differing schemas");
        }
        type.receptors.push_back(std::move(chain));
      }
    }

    ESP_ASSIGN_OR_RETURN(type.augmented_schema, AugmentSchema(receptor_out));

    // Per-group Merge.
    SchemaRef group_out = type.augmented_schema;
    for (const ProximityGroup* group : groups) {
      GroupChain chain;
      chain.group_id = group->id;
      if (config.merge != nullptr) {
        ESP_ASSIGN_OR_RETURN(chain.merge, config.merge());
        cql::SchemaCatalog catalog;
        catalog.AddStream(StageInputName(StageKind::kMerge),
                          type.augmented_schema);
        ESP_RETURN_IF_ERROR(chain.merge->Bind(catalog));
        group_out = chain.merge->output_schema();
      }
      type.groups.push_back(std::move(chain));
    }
    group_outputs.push_back(group_out);
  }

  ESP_RETURN_IF_ERROR(tail_.Start(group_outputs));
  started_ = true;
  return Status::OK();
}

Status EspProcessor::Push(const std::string& device_type, Tuple raw) {
  if (!started_) return Status::Internal("processor not started");
  ESP_ASSIGN_OR_RETURN(const EngineTail::Reading reading,
                       tail_.ValidateReading(device_type, raw));
  const std::string& receptor = reading.receptor.string_value();
  const HealthPolicy& policy = tail_.policy();
  for (ReceptorChain& chain : types_[reading.type].receptors) {
    if (!StrEqualsIgnoreCase(chain.receptor_id, receptor)) {
      continue;
    }
    // Validate the (previous tick, now] contract instead of trusting it:
    // anything at or before the previous tick's release watermark can never
    // be delivered in order again and is dropped loudly; later-but-within-
    // horizon readings go to the reorder buffer.
    if (has_ticked_) {
      const Timestamp watermark = last_tick_ - policy.lateness_horizon;
      if (raw.timestamp() <= watermark) {
        chain.health->RecordDroppedLate(1);
        return Status::OutOfRange(
            "reading for receptor '" + chain.receptor_id + "' at " +
            raw.timestamp().ToString() + " is behind the release watermark " +
            watermark.ToString() + " (lateness horizon " +
            policy.lateness_horizon.ToString() + ")");
      }
      if (raw.timestamp() <= last_tick_) chain.health->RecordLateAdmitted(1);
    }
    chain.pending.push_back(std::move(raw));
    return Status::OK();
  }
  return EngineTail::UnknownReceptor(receptor, device_type);
}

Status EspProcessor::EnsureQuarantineGroup(const std::string& device_type) {
  if (quarantine_groups_.contains(device_type)) return Status::OK();
  ProximityGroup parking;
  parking.id = QuarantineGroupId(device_type);
  parking.device_type = device_type;
  parking.granule.id = "__quarantined";
  ESP_RETURN_IF_ERROR(granules_.AddGroup(std::move(parking)));
  quarantine_groups_.insert(device_type);
  return Status::OK();
}

StatusOr<TickResult> EspProcessor::Tick(Timestamp now) {
  ESP_ASSIGN_OR_RETURN(MergedGroups groups, TickGroups(now));
  TickResult result;
  if (export_group_partials_) {
    // A cluster worker stops at Merge and ships the relations it holds;
    // the coordinator runs the tail.
    for (size_t t = 0; t < types_.size(); ++t) {
      for (size_t g = 0; g < groups[t].size(); ++g) {
        result.group_partials.push_back(
            GroupPartial{types_[t].config->device_type,
                         types_[t].groups[g].group_id,
                         std::move(groups[t][g])});
      }
    }
    return result;
  }
  ESP_RETURN_IF_ERROR(tail_.Run(std::move(groups), now, result));
  return result;
}

StatusOr<MergedGroups> EspProcessor::TickGroups(Timestamp now) {
  if (!started_) return Status::Internal("processor not started");
  if (has_ticked_ && now < last_tick_) {
    return Status::InvalidArgument("tick times must be non-decreasing");
  }
  // Release watermark: everything at or before it flows into the stages
  // this tick; later readings stay in the reorder buffers so late arrivals
  // within the horizon can still be slotted in ahead of them. With the
  // default zero horizon the watermark is `now` and nothing is delayed.
  const Timestamp watermark = now - tail_.policy().lateness_horizon;
  last_tick_ = now;
  has_ticked_ = true;

  MergedGroups merged_groups;
  merged_groups.reserve(types_.size());
  for (TypeRuntime& type : types_) {
    const std::string& device_type = type.config->device_type;
    // --- Per-receptor: Point chain, then Smooth. ---
    // Collected per group id for the Merge step.
    std::vector<Relation> group_streams(type.groups.size(),
                                        Relation(type.augmented_schema));
    for (ReceptorChain& chain : type.receptors) {
      // Release the reorder buffer up to the watermark.
      std::vector<Tuple> released;
      std::vector<Tuple> held;
      for (Tuple& tuple : chain.pending) {
        if (tuple.timestamp() <= watermark) {
          released.push_back(std::move(tuple));
        } else {
          held.push_back(std::move(tuple));
        }
      }
      chain.pending = std::move(held);
      std::sort(released.begin(), released.end(),
                [](const Tuple& a, const Tuple& b) {
                  return a.timestamp() < b.timestamp();
                });

      // Liveness state machine: suspect -> quarantine -> probe/revive.
      std::optional<Timestamp> data_time;
      if (!released.empty()) data_time = released.back().timestamp();
      using Transition = ReceptorHealthTracker::Transition;
      const Transition transition = chain.health->Observe(now, data_time);
      if (transition == Transition::kQuarantine) {
        ESP_RETURN_IF_ERROR(EnsureQuarantineGroup(device_type));
        ESP_RETURN_IF_ERROR(granules_.MoveReceptor(
            device_type, chain.receptor_id,
            QuarantineGroupId(device_type)));
      } else if (transition == Transition::kRevive) {
        ESP_RETURN_IF_ERROR(granules_.MoveReceptor(
            device_type, chain.receptor_id, chain.home_group_id));
      }
      if (chain.health->state() == ReceptorState::kQuarantined) {
        // Degraded mode: the receptor is out of its proximity group; its
        // readings (if any trickle in) are discarded until a probe revives
        // it, and Merge below runs over the surviving members only.
        chain.health->RecordDroppedQuarantined(
            static_cast<int64_t>(released.size()));
        continue;
      }
      chain.health->RecordDelivered(static_cast<int64_t>(released.size()));

      Relation current(type.config->reading_schema);
      for (Tuple& tuple : released) current.Add(std::move(tuple));

      for (std::unique_ptr<Stage>& stage : chain.point) {
        ESP_ASSIGN_OR_RETURN(
            current,
            tail_.RunStageGuarded(
                stage.get(), StageInputName(StageKind::kPoint),
                std::move(current), now, device_type, chain.receptor_id,
                chain.health.get()));
      }
      if (chain.smooth != nullptr) {
        ESP_ASSIGN_OR_RETURN(
            current, tail_.RunStageGuarded(
                         chain.smooth.get(), StageInputName(StageKind::kSmooth),
                         std::move(current), now, device_type,
                         chain.receptor_id, chain.health.get()));
      }

      // Stamp the spatial granule (footnote 2) and route to the receptor's
      // group. The lookup goes through the GranuleMap so dynamic
      // MoveReceptor() remappings take effect between ticks.
      ESP_ASSIGN_OR_RETURN(
          const ProximityGroup* group_of,
          granules_.GroupOf(device_type, chain.receptor_id));
      size_t group_index = type.groups.size();
      for (size_t g = 0; g < type.groups.size(); ++g) {
        if (StrEqualsIgnoreCase(type.groups[g].group_id, group_of->id)) {
          group_index = g;
          break;
        }
      }
      if (group_index == type.groups.size()) {
        return Status::Internal("receptor '" + chain.receptor_id +
                                "' mapped to unknown group");
      }
      const bool already_has_granule =
          current.schema() != nullptr &&
          current.schema()->Contains(kSpatialGranuleColumn);
      stream::TupleArena& arena = stream::TupleArena::Local();
      for (Tuple& tuple : current.mutable_tuples()) {
        if (already_has_granule) {
          group_streams[group_index].Add(std::move(tuple));
          continue;
        }
        std::vector<Value> values = arena.Acquire(tuple.num_fields() + 1);
        for (Value& value : tuple.mutable_values()) {
          values.push_back(std::move(value));
        }
        values.push_back(Value::Interned(group_of->granule.id));
        arena.Release(std::move(tuple.mutable_values()));
        group_streams[group_index].Add(Tuple(
            type.augmented_schema, std::move(values), tuple.timestamp()));
      }
    }

    // --- Per-group Merge. ---
    std::vector<Relation> merged;
    merged.reserve(type.groups.size());
    for (size_t g = 0; g < type.groups.size(); ++g) {
      Relation& input = group_streams[g];
      std::stable_sort(input.mutable_tuples().begin(),
                       input.mutable_tuples().end(),
                       [](const Tuple& a, const Tuple& b) {
                         return a.timestamp() < b.timestamp();
                       });
      if (type.groups[g].merge == nullptr) {
        merged.push_back(std::move(input));
        continue;
      }
      ESP_ASSIGN_OR_RETURN(
          Relation out,
          tail_.RunStageGuarded(type.groups[g].merge.get(),
                                StageInputName(StageKind::kMerge),
                                std::move(input), now, device_type,
                                type.groups[g].group_id));
      merged.push_back(std::move(out));
    }
    merged_groups.push_back(std::move(merged));
  }
  return merged_groups;
}

PipelineHealth EspProcessor::Health() const {
  PipelineHealth health;
  health.recovery = recovery_stats_;
  health.queries = tail_.queries().Stats();
  health.columnar.enabled = stream::ColumnarEnabled();
  health.columnar.avx2 = stream::simd::Avx2Available();
  {
    const stream::simd::KernelStats kernels = stream::simd::GetKernelStats();
    health.columnar.vector_batches = kernels.vector_batches;
    health.columnar.scalar_batches = kernels.scalar_batches;
    health.columnar.guard_fallbacks = kernels.guard_fallbacks;
  }
  {
    std::lock_guard<std::mutex> lock(ingest_source_mu_);
    health.ingest = ingest_source_ ? ingest_source_() : ingest_stats_;
  }
  for (const TypeRuntime& type : types_) {
    for (const ReceptorChain& chain : type.receptors) {
      if (chain.health == nullptr) continue;
      const ReceptorHealth& r = chain.health->health();
      health.receptors.push_back(r);
      health.total_late_admitted += r.late_admitted;
      health.total_dropped_late += r.dropped_late;
      health.total_dropped_quarantined += r.dropped_quarantined;
      if (r.state == ReceptorState::kQuarantined) ++health.quarantined_now;
      if (r.state == ReceptorState::kSuspect) ++health.suspect_now;
    }
  }
  for (const auto& [label, stat] : tail_.stage_errors()) {
    health.stage_errors.push_back(stat);
    health.total_stage_errors += stat.errors;
  }
  return health;
}

StatusOr<SchemaRef> EspProcessor::TypeReadingSchema(
    const std::string& device_type) const {
  return tail_.ReadingSchema(device_type);
}

size_t EspProcessor::BufferedTuples() const {
  size_t total = 0;
  for (const TypeRuntime& type : types_) {
    for (const ReceptorChain& chain : type.receptors) {
      total += chain.pending.size();
      for (const std::unique_ptr<Stage>& stage : chain.point) {
        total += stage->buffered();
      }
      if (chain.smooth != nullptr) total += chain.smooth->buffered();
    }
    for (const GroupChain& group : type.groups) {
      if (group.merge != nullptr) total += group.merge->buffered();
    }
  }
  return total + tail_.BufferedTuples();
}

Status EspProcessor::Checkpoint(CheckpointWriter& out) const {
  if (!started_) return Status::Internal("processor not started");

  // --- config: a fingerprint of the deployed topology and policy. Restore
  // refuses a snapshot whose fingerprint differs, since stage state is only
  // meaningful against the exact same configuration.
  ByteWriter config;
  config.WriteU32(static_cast<uint32_t>(types_.size()));
  for (const TypeRuntime& type : types_) {
    config.WriteString(type.config->device_type);
    stream::WriteSchema(config, *type.config->reading_schema);
    config.WriteU32(static_cast<uint32_t>(type.receptors.size()));
    for (const ReceptorChain& chain : type.receptors) {
      config.WriteString(chain.receptor_id);
      config.WriteU32(static_cast<uint32_t>(chain.point.size()));
      config.WriteBool(chain.smooth != nullptr);
    }
    config.WriteU32(static_cast<uint32_t>(type.groups.size()));
    for (const GroupChain& group : type.groups) {
      config.WriteString(group.group_id);
      config.WriteBool(group.merge != nullptr);
    }
    config.WriteBool(type.config->arbitrate != nullptr);
    config.WriteString(type.config->virtualize_input);
  }
  tail_.WriteConfig(config);
  out.AddSection("config", std::move(config));

  // --- clock.
  ByteWriter clock;
  clock.WriteBool(has_ticked_);
  clock.WriteI64(last_tick_.micros());
  out.AddSection("clock", std::move(clock));

  // --- receptors: reorder buffers, liveness state, and the (possibly
  // dynamically remapped or quarantine-parked) group assignment.
  ByteWriter receptors;
  for (const TypeRuntime& type : types_) {
    for (const ReceptorChain& chain : type.receptors) {
      const auto group = granules_.GroupOf(type.config->device_type,
                                           chain.receptor_id);
      ESP_RETURN_IF_ERROR(group.status());
      receptors.WriteString((*group)->id);
      ByteWriter health;
      chain.health->SaveState(health);
      receptors.WriteString(health.data());
      receptors.WriteU32(static_cast<uint32_t>(chain.pending.size()));
      for (const Tuple& tuple : chain.pending) {
        stream::WriteTuple(receptors, tuple);
      }
    }
  }
  out.AddSection("receptors", std::move(receptors));

  // --- stages (every stage's window/model state, in topology order),
  // errors (the per-stage isolation tallies), and queries (the serving
  // layer, absent while inactive).
  return tail_.Save(out, [this](size_t t, ByteWriter& stages) -> Status {
    for (const ReceptorChain& chain : types_[t].receptors) {
      for (const std::unique_ptr<Stage>& stage : chain.point) {
        ESP_RETURN_IF_ERROR(SaveStageBlob(stage.get(), stages));
      }
      if (chain.smooth != nullptr) {
        ESP_RETURN_IF_ERROR(SaveStageBlob(chain.smooth.get(), stages));
      }
    }
    for (const GroupChain& group : types_[t].groups) {
      if (group.merge != nullptr) {
        ESP_RETURN_IF_ERROR(SaveStageBlob(group.merge.get(), stages));
      }
    }
    return Status::OK();
  });
}

Status EspProcessor::Restore(const CheckpointReader& in) {
  if (!started_) return Status::Internal("processor not started");

  // Validate the configuration fingerprint byte-for-byte: same deployment,
  // same policy, or the stage state below is meaningless.
  {
    CheckpointWriter own;
    ESP_RETURN_IF_ERROR(Checkpoint(own));
    // Cheap trick: our own Checkpoint() just serialized the current
    // fingerprint; compare it against the snapshot's.
    ESP_ASSIGN_OR_RETURN(CheckpointReader own_reader,
                         CheckpointReader::Parse(own.Serialize()));
    ESP_ASSIGN_OR_RETURN(const std::string_view own_config,
                         own_reader.Section("config"));
    ESP_ASSIGN_OR_RETURN(const std::string_view snap_config,
                         in.Section("config"));
    if (own_config != snap_config) {
      return Status::InvalidArgument(
          "snapshot does not match the deployed configuration (device "
          "types, receptors, groups, stages, or health policy differ)");
    }
  }

  // --- clock.
  {
    ESP_ASSIGN_OR_RETURN(const std::string_view payload, in.Section("clock"));
    ByteReader r(payload);
    ESP_ASSIGN_OR_RETURN(has_ticked_, r.ReadBool());
    ESP_ASSIGN_OR_RETURN(const int64_t micros, r.ReadI64());
    last_tick_ = Timestamp::Micros(micros);
  }

  // --- receptors.
  {
    ESP_ASSIGN_OR_RETURN(const std::string_view payload,
                         in.Section("receptors"));
    ByteReader r(payload);
    for (TypeRuntime& type : types_) {
      const std::string& device_type = type.config->device_type;
      for (ReceptorChain& chain : type.receptors) {
        ESP_ASSIGN_OR_RETURN(const std::string group_id, r.ReadString());
        ESP_ASSIGN_OR_RETURN(const ProximityGroup* current,
                             granules_.GroupOf(device_type,
                                               chain.receptor_id));
        if (!StrEqualsIgnoreCase(current->id, group_id)) {
          if (group_id == QuarantineGroupId(device_type)) {
            ESP_RETURN_IF_ERROR(EnsureQuarantineGroup(device_type));
          }
          ESP_RETURN_IF_ERROR(granules_.MoveReceptor(
              device_type, chain.receptor_id, group_id));
        }
        ESP_ASSIGN_OR_RETURN(const std::string health_blob, r.ReadString());
        ByteReader health_reader(health_blob);
        ESP_RETURN_IF_ERROR(chain.health->LoadState(health_reader));
        if (!health_reader.exhausted()) {
          return Status::ParseError("receptor '" + chain.receptor_id +
                                    "' health state has trailing bytes");
        }
        ESP_ASSIGN_OR_RETURN(const uint32_t pending, r.ReadU32());
        chain.pending.clear();
        chain.pending.reserve(pending);
        for (uint32_t i = 0; i < pending; ++i) {
          ESP_ASSIGN_OR_RETURN(
              Tuple tuple,
              stream::ReadTuple(r, type.config->reading_schema));
          chain.pending.push_back(std::move(tuple));
        }
      }
    }
    if (!r.exhausted()) {
      return Status::ParseError("receptors section has trailing bytes");
    }
  }

  // --- stages, errors, queries.
  return tail_.Load(in, [this](size_t t, ByteReader& r) -> Status {
    for (ReceptorChain& chain : types_[t].receptors) {
      for (std::unique_ptr<Stage>& stage : chain.point) {
        ESP_RETURN_IF_ERROR(LoadStageBlob(stage.get(), r));
      }
      if (chain.smooth != nullptr) {
        ESP_RETURN_IF_ERROR(LoadStageBlob(chain.smooth.get(), r));
      }
    }
    for (GroupChain& group : types_[t].groups) {
      if (group.merge != nullptr) {
        ESP_RETURN_IF_ERROR(LoadStageBlob(group.merge.get(), r));
      }
    }
    return Status::OK();
  });
}

StatusOr<SchemaRef> EspProcessor::TypeOutputSchema(
    const std::string& device_type) const {
  return tail_.OutputSchema(device_type);
}

}  // namespace esp::core
