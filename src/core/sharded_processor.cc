#include "core/sharded_processor.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

#include "common/string_util.h"
#include "stream/serialize.h"

namespace esp::core {

using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;

namespace {

std::string ShardSectionName(size_t shard) {
  return "shard_" + std::to_string(shard);
}

}  // namespace

ShardedEspProcessor::ShardedEspProcessor(Options options)
    : options_(options) {}

Status ShardedEspProcessor::AddProximityGroup(ProximityGroup group) {
  if (started_) return Status::Internal("processor already started");
  return staged_granules_.AddGroup(std::move(group));
}

Status ShardedEspProcessor::SetHealthPolicy(HealthPolicy policy) {
  if (started_) return Status::Internal("processor already started");
  return tail_.SetHealthPolicy(policy);
}

Status ShardedEspProcessor::AddPipeline(DeviceTypePipeline pipeline) {
  if (started_) return Status::Internal("processor already started");
  return tail_.AddPipeline(std::move(pipeline));
}

Status ShardedEspProcessor::Start() {
  if (started_) return Status::Internal("processor already started");
  if (options_.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  const size_t num_shards = options_.num_shards;

  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(num_shards);
    pool_ = owned_pool_.get();
  }

  shards_.clear();
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<EspProcessor>());
    ESP_RETURN_IF_ERROR(shards_[s]->SetHealthPolicy(tail_.policy()));
  }

  // Partition each type's proximity groups into contiguous blocks in
  // registration order: with G groups over N shards, the first G % N shards
  // take ceil(G/N) groups, the rest floor(G/N). Contiguity is what makes
  // the shards' relations, taken in shard order, the single processor's
  // groups in registration order (see class comment).
  hosts_.assign(tail_.num_types(), {});
  group_ids_.assign(tail_.num_types(), {});
  std::vector<size_t> shard_types(num_shards, 0);
  for (size_t t = 0; t < tail_.num_types(); ++t) {
    const DeviceTypePipeline& config = tail_.pipeline(t);
    const auto groups = staged_granules_.GroupsOfType(config.device_type);
    if (groups.empty()) {
      return Status::InvalidArgument("no proximity groups for device type '" +
                                     config.device_type + "'");
    }
    for (const ProximityGroup* group : groups) {
      group_ids_[t].push_back(group->id);
    }
    const size_t g_count = groups.size();
    const size_t base = g_count / num_shards;
    const size_t extra = g_count % num_shards;
    size_t next = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t take = base + (s < extra ? 1 : 0);
      if (take == 0) continue;
      for (size_t i = 0; i < take; ++i, ++next) {
        const ProximityGroup* group = groups[next];
        ESP_RETURN_IF_ERROR(shards_[s]->AddProximityGroup(*group));
        for (const std::string& receptor_id : group->receptor_ids) {
          receptor_shard_[EngineTail::ReceptorKey(config.device_type,
                                                  receptor_id)] = s;
        }
      }
      hosts_[t].push_back(Host{s, shard_types[s]++});
      ESP_RETURN_IF_ERROR(shards_[s]->AddPipeline(tail_.GroupPipeline(t)));
    }
  }

  for (size_t s = 0; s < num_shards; ++s) {
    ESP_RETURN_IF_ERROR(shards_[s]->Start());
  }
  std::vector<SchemaRef> group_outputs;
  for (size_t t = 0; t < tail_.num_types(); ++t) {
    ESP_ASSIGN_OR_RETURN(
        SchemaRef group_output,
        shards_[hosts_[t].front().shard]->TypeOutputSchema(
            tail_.pipeline(t).device_type));
    group_outputs.push_back(std::move(group_output));
  }
  ESP_RETURN_IF_ERROR(tail_.Start(group_outputs));
  started_ = true;
  return Status::OK();
}

Status ShardedEspProcessor::Push(const std::string& device_type, Tuple raw) {
  if (!started_) return Status::Internal("processor not started");
  ESP_ASSIGN_OR_RETURN(const EngineTail::Reading reading,
                       tail_.ValidateReading(device_type, raw));
  const std::string& receptor = reading.receptor.string_value();
  const auto it =
      receptor_shard_.find(EngineTail::ReceptorKey(device_type, receptor));
  if (it == receptor_shard_.end()) {
    return EngineTail::UnknownReceptor(receptor, device_type);
  }
  // The shard re-runs the cheap validations (the schema check hits the
  // pointer fast path) and applies the watermark contract against its own
  // clock, which ticks in lockstep with ours.
  return shards_[it->second]->Push(device_type, std::move(raw));
}

StatusOr<TickResult> ShardedEspProcessor::Tick(Timestamp now) {
  if (!started_) return Status::Internal("processor not started");
  if (has_ticked_ && now < last_tick_) {
    return Status::InvalidArgument("tick times must be non-decreasing");
  }
  last_tick_ = now;
  has_ticked_ = true;

  // Fan the per-group work out on the pool. Each slot is written by exactly
  // one worker; errors are surfaced in shard order for determinism.
  std::vector<std::optional<StatusOr<MergedGroups>>> shard_groups(
      shards_.size());
  pool_->ParallelFor(shards_.size(), [&](size_t s) {
    shard_groups[s] = shards_[s]->TickGroups(now);
  });
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shard_groups[s]->ok()) return shard_groups[s]->status();
  }

  // Block contiguity: each type's hosting shards, in shard order, hold its
  // groups in registration order.
  TickResult result;
  MergedGroups groups(hosts_.size());
  for (size_t t = 0; t < hosts_.size(); ++t) {
    for (const Host& host : hosts_[t]) {
      std::vector<Relation>& part =
          shard_groups[host.shard]->value()[host.local_type];
      groups[t].insert(groups[t].end(), std::make_move_iterator(part.begin()),
                       std::make_move_iterator(part.end()));
    }
  }
  if (export_group_partials_) {
    for (size_t t = 0; t < groups.size(); ++t) {
      for (size_t g = 0; g < groups[t].size(); ++g) {
        result.group_partials.push_back(
            GroupPartial{tail_.pipeline(t).device_type, group_ids_[t][g],
                         std::move(groups[t][g])});
      }
    }
    return result;
  }
  ESP_RETURN_IF_ERROR(tail_.Run(std::move(groups), now, result));
  return result;
}

PipelineHealth ShardedEspProcessor::Health() const {
  PipelineHealth health;
  health.recovery = recovery_stats_;
  health.queries = tail_.queries().Stats();
  {
    std::lock_guard<std::mutex> lock(ingest_source_mu_);
    health.ingest = ingest_source_ ? ingest_source_() : ingest_stats_;
  }

  std::vector<PipelineHealth> shard_health;
  shard_health.reserve(shards_.size());
  for (const std::unique_ptr<EspProcessor>& shard : shards_) {
    shard_health.push_back(shard->Health());
  }

  // Receptors in the single processor's order: types in registration order,
  // receptors in group-block order — i.e. each type's hosting shards in
  // ascending order, each shard's receptors of that type in its local
  // (block-contiguous) order.
  for (size_t t = 0; t < hosts_.size(); ++t) {
    for (const Host& host : hosts_[t]) {
      for (const ReceptorHealth& r : shard_health[host.shard].receptors) {
        if (!StrEqualsIgnoreCase(r.device_type,
                                 tail_.pipeline(t).device_type)) {
          continue;
        }
        health.receptors.push_back(r);
        health.total_late_admitted += r.late_admitted;
        health.total_dropped_late += r.dropped_late;
        health.total_dropped_quarantined += r.dropped_quarantined;
        if (r.state == ReceptorState::kQuarantined) ++health.quarantined_now;
        if (r.state == ReceptorState::kSuspect) ++health.suspect_now;
      }
    }
  }

  // One label-sorted error list: shard-local labels (receptor/group owners
  // are disjoint across shards) plus the wrapper's Arbitrate / Virtualize
  // labels — matching the single processor's sorted map.
  std::map<std::string, StageErrorStat> merged(tail_.stage_errors());
  for (const PipelineHealth& sh : shard_health) {
    for (const StageErrorStat& stat : sh.stage_errors) {
      merged[stat.stage] = stat;
    }
  }
  for (const auto& [label, stat] : merged) {
    health.stage_errors.push_back(stat);
    health.total_stage_errors += stat.errors;
  }
  return health;
}

StatusOr<SchemaRef> ShardedEspProcessor::TypeReadingSchema(
    const std::string& device_type) const {
  return tail_.ReadingSchema(device_type);
}

StatusOr<SchemaRef> ShardedEspProcessor::TypeOutputSchema(
    const std::string& device_type) const {
  return tail_.OutputSchema(device_type);
}

size_t ShardedEspProcessor::BufferedTuples() const {
  size_t total = tail_.BufferedTuples();
  for (const std::unique_ptr<EspProcessor>& shard : shards_) {
    total += shard->BufferedTuples();
  }
  return total;
}

ByteWriter ShardedEspProcessor::ConfigFingerprint() const {
  ByteWriter config;
  config.WriteU32(static_cast<uint32_t>(options_.num_shards));
  config.WriteU32(static_cast<uint32_t>(tail_.num_types()));
  for (size_t t = 0; t < tail_.num_types(); ++t) {
    const DeviceTypePipeline& type = tail_.pipeline(t);
    config.WriteString(type.device_type);
    stream::WriteSchema(config, *type.reading_schema);
    const auto groups = staged_granules_.GroupsOfType(type.device_type);
    config.WriteU32(static_cast<uint32_t>(groups.size()));
    for (const ProximityGroup* group : groups) {
      config.WriteString(group->id);
      config.WriteU32(static_cast<uint32_t>(group->receptor_ids.size()));
      for (const std::string& receptor_id : group->receptor_ids) {
        config.WriteString(receptor_id);
      }
    }
    config.WriteU32(static_cast<uint32_t>(type.point.size()));
    config.WriteBool(type.smooth != nullptr);
    config.WriteBool(type.merge != nullptr);
    config.WriteBool(type.arbitrate != nullptr);
    config.WriteString(type.virtualize_input);
  }
  tail_.WriteConfig(config);
  return config;
}

Status ShardedEspProcessor::Checkpoint(CheckpointWriter& out) const {
  if (!started_) return Status::Internal("processor not started");

  out.AddSection("config", ConfigFingerprint());

  ByteWriter clock;
  clock.WriteBool(has_ticked_);
  clock.WriteI64(last_tick_.micros());
  out.AddSection("clock", std::move(clock));

  // Every shard's full snapshot (its own config fingerprint, clock,
  // receptors, stages, errors) nests as one opaque section.
  for (size_t s = 0; s < shards_.size(); ++s) {
    CheckpointWriter shard_out;
    ESP_RETURN_IF_ERROR(shards_[s]->Checkpoint(shard_out));
    ByteWriter nested;
    nested.WriteString(shard_out.Serialize());
    out.AddSection(ShardSectionName(s), std::move(nested));
  }

  // The wrapper-owned stages (per-type Arbitrate, then Virtualize), their
  // error tallies, and the serving layer.
  return tail_.Save(out, nullptr);
}

Status ShardedEspProcessor::Restore(const CheckpointReader& in) {
  if (!started_) return Status::Internal("processor not started");

  {
    ESP_ASSIGN_OR_RETURN(const std::string_view snap_config,
                         in.Section("config"));
    const ByteWriter own = ConfigFingerprint();
    if (std::string_view(own.data()) != snap_config) {
      return Status::InvalidArgument(
          "snapshot does not match the deployed configuration (shard count, "
          "device types, receptors, groups, stages, or health policy "
          "differ)");
    }
  }

  {
    ESP_ASSIGN_OR_RETURN(const std::string_view payload, in.Section("clock"));
    ByteReader r(payload);
    ESP_ASSIGN_OR_RETURN(has_ticked_, r.ReadBool());
    ESP_ASSIGN_OR_RETURN(const int64_t micros, r.ReadI64());
    last_tick_ = Timestamp::Micros(micros);
  }

  for (size_t s = 0; s < shards_.size(); ++s) {
    ESP_ASSIGN_OR_RETURN(const std::string_view payload,
                         in.Section(ShardSectionName(s)));
    ByteReader r(payload);
    ESP_ASSIGN_OR_RETURN(const std::string nested, r.ReadString());
    if (!r.exhausted()) {
      return Status::ParseError(ShardSectionName(s) +
                                " section has trailing bytes");
    }
    ESP_ASSIGN_OR_RETURN(CheckpointReader shard_in,
                         CheckpointReader::Parse(nested));
    ESP_RETURN_IF_ERROR(shards_[s]->Restore(shard_in));
  }

  return tail_.Load(in, nullptr);
}

}  // namespace esp::core
