#include "cluster/coordinator.h"

#include <sys/stat.h>

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "cql/analyzer.h"
#include "core/stage.h"

namespace esp::cluster {

namespace {

using core::GroupPartial;
using core::TickResult;
using net::FrameDecoder;
using net::MessageKind;
using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;

/// Composite case-insensitive key for the routing maps.
std::string Key(const std::string& device_type, const std::string& name) {
  std::string key = StrToLower(device_type);
  key.push_back('\0');
  key += StrToLower(name);
  return key;
}

/// FNV-1a over the lowered group key — a stable, platform-independent
/// group -> slot assignment (hash order must not depend on std::hash).
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr Duration kRecvSlice = Duration::Millis(20);

}  // namespace

ClusterCoordinator::ClusterCoordinator(ClusterOptions options)
    : options_(std::move(options)),
      membership_(options_.heartbeat_deadline) {
  if (!options_.clock) options_.clock = [] { return SteadyNow(); };
}

ClusterCoordinator::~ClusterCoordinator() { (void)Stop(); }

Status ClusterCoordinator::AddProximityGroup(core::ProximityGroup group) {
  if (started_) return Status::Internal("cluster already started");
  groups_.push_back(std::move(group));
  return Status::OK();
}

Status ClusterCoordinator::AddPipeline(core::DeviceTypePipeline pipeline) {
  if (started_) return Status::Internal("cluster already started");
  return tail_.AddPipeline(std::move(pipeline));
}

Status ClusterCoordinator::SetHealthPolicy(core::HealthPolicy policy) {
  if (started_) return Status::Internal("cluster already started");
  return tail_.SetHealthPolicy(policy);
}

uint32_t ClusterCoordinator::AssignSlot(const std::string& device_type,
                                        const std::string& group_id) const {
  return static_cast<uint32_t>(Fnv1a(Key(device_type, group_id)) %
                               options_.num_workers);
}

WorkerSpawnSpec ClusterCoordinator::MakeSpawnSpec(uint32_t slot,
                                                  uint64_t epoch,
                                                  bool resume) const {
  // The worker gets exactly its slot's groups and, for each device type
  // with at least one of them, the pipeline with Arbitrate stripped — the
  // cross-group stages stay here.
  std::vector<core::ProximityGroup> slot_groups;
  for (const core::ProximityGroup& group : groups_) {
    if (AssignSlot(group.device_type, group.id) == slot) {
      slot_groups.push_back(group);
    }
  }
  std::vector<core::DeviceTypePipeline> pipelines;
  for (size_t t = 0; t < tail_.num_types(); ++t) {
    const bool hosted = std::any_of(
        slot_groups.begin(), slot_groups.end(),
        [&](const core::ProximityGroup& g) {
          return StrEqualsIgnoreCase(g.device_type,
                                     tail_.pipeline(t).device_type);
        });
    if (!hosted) continue;
    pipelines.push_back(tail_.GroupPipeline(t));
  }

  WorkerSpawnSpec spec;
  spec.options.slot = slot;
  spec.options.epoch = epoch;
  spec.options.resume = resume;
  spec.options.recovery.directory =
      options_.storage_root + "/slot_" + std::to_string(slot);
  spec.options.recovery.fsync = options_.fsync;
  spec.options.recovery.retain_snapshots = options_.retain_snapshots;
  spec.options.heartbeat_interval = options_.heartbeat_interval;
  spec.options.write_timeout = options_.write_timeout;
  spec.options.max_frame_bytes = options_.max_frame_bytes;
  spec.factory = [slot_groups = std::move(slot_groups),
                  pipelines = std::move(pipelines), policy = tail_.policy()]()
      -> StatusOr<std::unique_ptr<core::StreamEngine>> {
    auto engine = std::make_unique<core::EspProcessor>();
    ESP_RETURN_IF_ERROR(engine->SetHealthPolicy(policy));
    for (const core::ProximityGroup& group : slot_groups) {
      ESP_RETURN_IF_ERROR(engine->AddProximityGroup(group));
    }
    for (const core::DeviceTypePipeline& pipeline : pipelines) {
      ESP_RETURN_IF_ERROR(engine->AddPipeline(pipeline));
    }
    ESP_RETURN_IF_ERROR(engine->Start());
    return std::unique_ptr<core::StreamEngine>(std::move(engine));
  };
  return spec;
}

Status ClusterCoordinator::Start(WorkerSupervisor* supervisor) {
  if (started_) return Status::Internal("cluster already started");
  if (supervisor == nullptr) {
    return Status::InvalidArgument("cluster needs a worker supervisor");
  }
  if (options_.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be at least 1");
  }
  if (options_.storage_root.empty()) {
    return Status::InvalidArgument("storage_root must be set");
  }
  supervisor_ = supervisor;

  if (::mkdir(options_.storage_root.c_str(), 0775) != 0 &&
      errno != EEXIST) {
    return Status::FromErrno("mkdir " + options_.storage_root, errno);
  }

  // The schema oracle: an arbitrate-stripped, never-fed local twin whose
  // TypeOutputSchema IS the workers' per-group partial schema.
  oracle_ = std::make_unique<core::EspProcessor>();
  ESP_RETURN_IF_ERROR(oracle_->SetHealthPolicy(tail_.policy()));
  for (const core::ProximityGroup& group : groups_) {
    ESP_RETURN_IF_ERROR(oracle_->AddProximityGroup(group));
    const uint32_t slot = AssignSlot(group.device_type, group.id);
    for (const std::string& receptor_id : group.receptor_ids) {
      receptor_slot_[core::EngineTail::ReceptorKey(group.device_type,
                                                   receptor_id)] = slot;
    }
    group_slot_[Key(group.device_type, group.id)] = slot;
  }
  group_order_.assign(tail_.num_types(), {});
  for (size_t t = 0; t < tail_.num_types(); ++t) {
    ESP_RETURN_IF_ERROR(oracle_->AddPipeline(tail_.GroupPipeline(t)));
    for (const core::ProximityGroup& group : groups_) {
      if (StrEqualsIgnoreCase(group.device_type,
                              tail_.pipeline(t).device_type)) {
        group_order_[t].push_back(group.id);
      }
    }
    if (group_order_[t].empty()) {
      return Status::InvalidArgument("no proximity groups for device type '" +
                                     tail_.pipeline(t).device_type + "'");
    }
  }
  ESP_RETURN_IF_ERROR(oracle_->Start());

  // The central tail, bound over the workers' per-group output schema.
  std::vector<SchemaRef> group_outputs;
  for (size_t t = 0; t < tail_.num_types(); ++t) {
    ESP_ASSIGN_OR_RETURN(
        SchemaRef group_output,
        oracle_->TypeOutputSchema(tail_.pipeline(t).device_type));
    group_outputs.push_back(std::move(group_output));
  }
  ESP_RETURN_IF_ERROR(tail_.Start(group_outputs));

  links_.resize(options_.num_workers);
  for (uint32_t slot = 0; slot < options_.num_workers; ++slot) {
    WorkerLink& link = links_[slot];
    link.slot = slot;
    link.epoch = 1;
    ESP_RETURN_IF_ERROR(SpawnAndConnect(link, /*resume=*/false));
  }
  started_ = true;
  return Status::OK();
}

Status ClusterCoordinator::SpawnAndConnect(WorkerLink& link, bool resume) {
  const WorkerSpawnSpec spec = MakeSpawnSpec(link.slot, link.epoch, resume);
  ESP_ASSIGN_OR_RETURN(const WorkerEndpoint endpoint,
                       supervisor_->Spawn(spec));
  ++stats_.workers_spawned;
  link.pid = endpoint.pid;
  link.port = endpoint.port;
  link.decoder = FrameDecoder(options_.max_frame_bytes);

  ESP_ASSIGN_OR_RETURN(
      link.fd,
      net::TcpConnect("127.0.0.1", link.port, options_.connect_timeout));

  net::ClusterHelloMessage hello;
  hello.slot = link.slot;
  hello.epoch = link.epoch;
  ESP_RETURN_IF_ERROR(net::SendAll(link.fd.get(),
                                   net::EncodeClusterHello(hello),
                                   options_.write_timeout));

  // Read until the Welcome arrives; the worker's buffered result (if any)
  // follows it and stays in the decoder for the next drain.
  for (;;) {
    ESP_ASSIGN_OR_RETURN(std::optional<std::string> payload,
                         link.decoder.Next());
    if (payload.has_value()) {
      ESP_ASSIGN_OR_RETURN(const MessageKind kind, net::PeekKind(*payload));
      if (kind == MessageKind::kError) {
        ESP_ASSIGN_OR_RETURN(const net::ErrorMessage err,
                             net::DecodeError(*payload));
        return Status::FailedPrecondition("worker slot " +
                                          std::to_string(link.slot) +
                                          " refused handshake: " +
                                          err.message);
      }
      ESP_ASSIGN_OR_RETURN(const net::WelcomeMessage welcome,
                           net::DecodeWelcome(*payload));
      if (welcome.last_applied_seq > link.last_acked) {
        link.last_acked = welcome.last_applied_seq;
      }
      while (!link.unacked.empty() &&
             link.unacked.front().seq <= link.last_acked) {
        link.unacked.pop_front();
      }
      // Exactly-once resume: everything past the worker's journal cursor,
      // in order. The worker's SequenceTracker drops any stragglers.
      for (const UnackedFrame& frame : link.unacked) {
        ESP_RETURN_IF_ERROR(
            net::SendAll(link.fd.get(), frame.bytes, options_.write_timeout));
      }
      membership_.Seat(link.slot, link.epoch, options_.clock());
      return Status::OK();
    }
    ESP_ASSIGN_OR_RETURN(
        const std::string bytes,
        net::RecvSome(link.fd.get(), 64 * 1024, options_.connect_timeout));
    if (bytes.empty()) {
      return Status::ConnectionReset("worker slot " +
                                     std::to_string(link.slot) +
                                     " closed during the handshake");
    }
    link.decoder.Feed(bytes);
  }
}

Status ClusterCoordinator::Failover(WorkerLink& link) {
  const Timestamp t0 = options_.clock();
  ++stats_.worker_deaths;
  link.epoch = membership_.Fence(link.slot);
  link.fd.reset();
  if (link.pid >= 0) {
    // Make death certain before the replacement touches the slot's storage
    // (the dead worker's flock releases with the process).
    ESP_RETURN_IF_ERROR(supervisor_->Kill(link.pid));
    link.pid = -1;
  }
  ESP_RETURN_IF_ERROR(SpawnAndConnect(link, /*resume=*/true));
  stats_.recovery_ms.push_back((options_.clock() - t0).micros() / 1000.0);
  return Status::OK();
}

Status ClusterCoordinator::Push(const std::string& device_type, Tuple raw) {
  if (!started_) return Status::Internal("cluster not started");
  ESP_ASSIGN_OR_RETURN(const core::EngineTail::Reading reading,
                       tail_.ValidateReading(device_type, raw));
  const std::string& canonical = tail_.pipeline(reading.type).device_type;
  const std::string& receptor = reading.receptor.string_value();
  const auto it = receptor_slot_.find(
      core::EngineTail::ReceptorKey(canonical, receptor));
  if (it == receptor_slot_.end()) {
    return core::EngineTail::UnknownReceptor(receptor, device_type);
  }
  links_[it->second].pending.push_back(
      PendingReading{canonical, std::move(raw)});
  ++stats_.readings_routed;
  return Status::OK();
}

void ClusterCoordinator::SendSequenced(
    WorkerLink& link,
    const std::function<std::string(uint64_t seq)>& encode) {
  UnackedFrame frame;
  frame.seq = link.next_seq++;
  frame.bytes = encode(frame.seq);
  link.unacked.push_back(std::move(frame));
  if (link.fd.valid()) {
    const Status sent = net::SendAll(link.fd.get(),
                                     link.unacked.back().bytes,
                                     options_.write_timeout);
    // A failed transmit only drops the link; the frame is in the resume
    // window and goes out again after failover.
    if (!sent.ok()) link.fd.reset();
  }
}

void ClusterCoordinator::FlushPushes(WorkerLink& link) {
  size_t i = 0;
  while (i < link.pending.size()) {
    // One batch per run of consecutive same-type readings: preserves the
    // caller's push order within the slot, which is what the monolith saw.
    size_t j = i + 1;
    while (j < link.pending.size() &&
           link.pending[j].device_type == link.pending[i].device_type) {
      ++j;
    }
    std::vector<Tuple> readings;
    readings.reserve(j - i);
    for (size_t k = i; k < j; ++k) {
      readings.push_back(std::move(link.pending[k].reading));
    }
    const std::string& device_type = link.pending[i].device_type;
    SendSequenced(link, [&](uint64_t seq) {
      return net::EncodeBatch(seq, device_type, readings);
    });
    ++stats_.batches_sent;
    i = j;
  }
  link.pending.clear();
}

Status ClusterCoordinator::HandleWorkerFrame(
    WorkerLink& link, const std::string& payload,
    const std::optional<Timestamp>& awaiting) {
  ESP_ASSIGN_OR_RETURN(const MessageKind kind, net::PeekKind(payload));
  const auto prune = [&](uint64_t applied) {
    if (applied > link.last_acked) link.last_acked = applied;
    while (!link.unacked.empty() &&
           link.unacked.front().seq <= link.last_acked) {
      link.unacked.pop_front();
    }
  };
  switch (kind) {
    case MessageKind::kAck: {
      ESP_ASSIGN_OR_RETURN(const net::AckMessage ack,
                           net::DecodeAck(payload));
      prune(ack.last_applied_seq);
      return Status::OK();
    }
    case MessageKind::kWelcome: {
      // A duplicated handshake reply; its cursor is still a valid ack.
      ESP_ASSIGN_OR_RETURN(const net::WelcomeMessage welcome,
                           net::DecodeWelcome(payload));
      prune(welcome.last_applied_seq);
      return Status::OK();
    }
    case MessageKind::kHeartbeat: {
      ESP_ASSIGN_OR_RETURN(const net::HeartbeatMessage beat,
                           net::DecodeHeartbeat(payload));
      if (beat.slot != link.slot || beat.epoch != link.epoch) {
        ++stats_.fenced_frames;
        return Status::OK();
      }
      ++stats_.heartbeats_received;
      (void)membership_.RecordHeartbeat(beat.slot, beat.epoch,
                                        options_.clock());
      prune(beat.last_applied_seq);
      return Status::OK();
    }
    case MessageKind::kTickResult: {
      ESP_ASSIGN_OR_RETURN(
          net::TickResultMessage result,
          net::DecodeTickResult(payload, [this](const std::string& type) {
            return oracle_->TypeOutputSchema(type);
          }));
      if (result.slot != link.slot || result.epoch != link.epoch) {
        ++stats_.fenced_frames;
        return Status::OK();
      }
      if (awaiting.has_value() && result.tick_time == *awaiting) {
        // First result wins; a re-sent duplicate is bitwise-identical by
        // the recovery equivalence guarantee.
        if (!link.result.has_value()) {
          link.result = std::move(result.partials);
        } else {
          ++stats_.duplicate_results;
        }
        return Status::OK();
      }
      if (has_ticked_ && result.tick_time <= last_tick_) {
        ++stats_.duplicate_results;  // Re-offered after a reconnect.
        return Status::OK();
      }
      return Status::Internal("worker slot " + std::to_string(link.slot) +
                              " sent a result for an unknown tick");
    }
    case MessageKind::kError: {
      ESP_ASSIGN_OR_RETURN(const net::ErrorMessage err,
                           net::DecodeError(payload));
      return Status::ConnectionReset("worker slot " +
                                     std::to_string(link.slot) +
                                     " error: " + err.message);
    }
    default:
      return Status::ConnectionReset("unexpected worker message kind");
  }
}

Status ClusterCoordinator::DrainLink(
    WorkerLink& link, const std::optional<Timestamp>& awaiting) {
  for (;;) {
    StatusOr<std::optional<std::string>> next = link.decoder.Next();
    if (!next.ok()) {
      link.fd.reset();  // Framing lost; failover redials cleanly.
      return Status::OK();
    }
    if (!next->has_value()) break;
    const Status handled = HandleWorkerFrame(link, **next, awaiting);
    if (handled.code() == StatusCode::kConnectionReset) {
      link.fd.reset();
      return Status::OK();
    }
    ESP_RETURN_IF_ERROR(handled);
  }
  if (!link.fd.valid()) return Status::OK();
  for (;;) {
    StatusOr<std::string> bytes =
        net::RecvSome(link.fd.get(), 64 * 1024, Duration::Zero());
    if (!bytes.ok()) {
      if (bytes.status().code() == StatusCode::kTimedOut) return Status::OK();
      link.fd.reset();
      return Status::OK();
    }
    if (bytes->empty()) {
      link.fd.reset();
      return Status::OK();
    }
    link.decoder.Feed(*bytes);
    for (;;) {
      StatusOr<std::optional<std::string>> next = link.decoder.Next();
      if (!next.ok()) {
        link.fd.reset();
        return Status::OK();
      }
      if (!next->has_value()) break;
      const Status handled = HandleWorkerFrame(link, **next, awaiting);
      if (handled.code() == StatusCode::kConnectionReset) {
        link.fd.reset();
        return Status::OK();
      }
      ESP_RETURN_IF_ERROR(handled);
    }
  }
}

Status ClusterCoordinator::AwaitResult(WorkerLink& link, Timestamp now) {
  size_t failovers = 0;
  Timestamp deadline = options_.clock() + options_.reply_timeout;
  for (;;) {
    if (!link.fd.valid()) {
      if (failovers++ >= options_.max_failovers_per_tick) {
        return Status::Unavailable(
            "worker slot " + std::to_string(link.slot) + " failed " +
            std::to_string(failovers) + " times within one tick");
      }
      ESP_RETURN_IF_ERROR(Failover(link));
      deadline = options_.clock() + options_.reply_timeout;
    }
    ESP_RETURN_IF_ERROR(DrainLink(link, now));
    if (link.result.has_value()) return Status::OK();
    if (!link.fd.valid()) continue;  // Died during the drain.

    StatusOr<std::string> bytes =
        net::RecvSome(link.fd.get(), 64 * 1024, kRecvSlice);
    if (bytes.ok()) {
      if (bytes->empty()) {
        link.fd.reset();  // EOF — the worker is gone.
        continue;
      }
      link.decoder.Feed(*bytes);
      continue;
    }
    if (bytes.status().code() != StatusCode::kTimedOut) {
      link.fd.reset();
      continue;
    }
    if (options_.clock() > deadline) {
      // Silent past the reply deadline: declared dead.
      link.fd.reset();
    }
  }
}

StatusOr<TickResult> ClusterCoordinator::Tick(Timestamp now) {
  if (!started_) return Status::Internal("cluster not started");
  if (has_ticked_ && now <= last_tick_) {
    // Strictly increasing: the tick time is the cluster-wide result key.
    return Status::InvalidArgument(
        "cluster tick times must be strictly increasing");
  }

  for (WorkerLink& link : links_) {
    link.result.reset();
    FlushPushes(link);
    SendSequenced(link,
                  [&](uint64_t seq) { return net::EncodeTick(seq, now); });
  }
  for (WorkerLink& link : links_) {
    ESP_RETURN_IF_ERROR(AwaitResult(link, now));
  }

  core::MergedGroups groups(tail_.num_types());
  for (size_t t = 0; t < tail_.num_types(); ++t) {
    // Gather this type's partials across slots (slot order), then replay
    // them in global group-registration order — the monolith's Union
    // order. Groups the static config does not know (a worker's lazily
    // registered quarantine group) append after, in slot order.
    std::vector<net::WirePartial*> gathered;
    for (WorkerLink& link : links_) {
      for (net::WirePartial& partial : *link.result) {
        if (StrEqualsIgnoreCase(partial.device_type,
                                tail_.pipeline(t).device_type)) {
          gathered.push_back(&partial);
        }
      }
    }
    std::vector<bool> used(gathered.size(), false);
    for (const std::string& group_id : group_order_[t]) {
      for (size_t i = 0; i < gathered.size(); ++i) {
        if (!used[i] &&
            StrEqualsIgnoreCase(gathered[i]->group_id, group_id)) {
          used[i] = true;
          groups[t].push_back(std::move(gathered[i]->relation));
          break;
        }
      }
    }
    for (size_t i = 0; i < gathered.size(); ++i) {
      if (!used[i]) groups[t].push_back(std::move(gathered[i]->relation));
    }
  }
  TickResult result;
  const Status ran = tail_.Run(std::move(groups), now, result);
  stats_.stage_errors = tail_.total_stage_errors();
  ESP_RETURN_IF_ERROR(ran);

  last_tick_ = now;
  has_ticked_ = true;
  ++stats_.ticks;

  if (options_.checkpoint_interval_ticks > 0 &&
      ++ticks_since_checkpoint_ >= options_.checkpoint_interval_ticks) {
    ticks_since_checkpoint_ = 0;
    ESP_RETURN_IF_ERROR(Checkpoint());
  }
  return result;
}

Status ClusterCoordinator::Checkpoint() {
  if (!started_) return Status::Internal("cluster not started");
  // Unsequenced and fire-and-forget: a checkpoint is an optimization, and
  // requesting it only after the covered tick merged keeps the recovery
  // invariant (see worker.h). A dead link just skips a checkpoint.
  const std::string request = net::EncodeCheckpointRequest();
  for (WorkerLink& link : links_) {
    if (!link.fd.valid()) continue;
    const Status sent =
        net::SendAll(link.fd.get(), request, options_.write_timeout);
    if (!sent.ok()) link.fd.reset();
  }
  return Status::OK();
}

Status ClusterCoordinator::CheckLiveness() {
  if (!started_) return Status::Internal("cluster not started");
  for (WorkerLink& link : links_) {
    ESP_RETURN_IF_ERROR(DrainLink(link, std::nullopt));
  }
  for (const uint32_t slot : membership_.ExpiredSlots(options_.clock())) {
    ESP_RETURN_IF_ERROR(Failover(links_[slot]));
  }
  return Status::OK();
}

Status ClusterCoordinator::Stop() {
  Status first = Status::OK();
  for (WorkerLink& link : links_) {
    link.fd.reset();
    if (link.pid >= 0 && supervisor_ != nullptr) {
      const Status killed = supervisor_->Kill(link.pid);
      if (!killed.ok() && first.ok()) first = killed;
      link.pid = -1;
    }
  }
  return first;
}

StatusOr<uint32_t> ClusterCoordinator::SlotOfGroup(
    const std::string& device_type, const std::string& group_id) const {
  const auto it = group_slot_.find(Key(device_type, group_id));
  if (it == group_slot_.end()) {
    return Status::NotFound("no group '" + group_id + "' of type '" +
                            device_type + "'");
  }
  return it->second;
}

int64_t ClusterCoordinator::worker_pid(uint32_t slot) const {
  return slot < links_.size() ? links_[slot].pid : -1;
}

uint64_t ClusterCoordinator::worker_epoch(uint32_t slot) const {
  return slot < links_.size() ? links_[slot].epoch : 0;
}

}  // namespace esp::cluster
