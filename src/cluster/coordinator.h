#ifndef ESP_CLUSTER_COORDINATOR_H_
#define ESP_CLUSTER_COORDINATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/membership.h"
#include "cluster/supervisor.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/time.h"
#include "core/processor.h"
#include "net/socket.h"
#include "net/wire.h"

namespace esp::cluster {

struct ClusterOptions {
  /// Worker slots; proximity groups are assigned slot = hash(group) % N.
  size_t num_workers = 2;

  /// Root directory for per-slot worker storage (`<root>/slot_<i>`);
  /// created if missing (one level).
  std::string storage_root;

  /// Worker durability knobs (each slot's RecoveryOptions inherits these).
  bool fsync = true;
  size_t retain_snapshots = 3;

  /// Broadcast a checkpoint request to every worker each N merged ticks
  /// (0 = never). Checkpoints are requested only AFTER the covered tick's
  /// results were merged, so a replacement's journal suffix always reaches
  /// any tick the coordinator may still be awaiting.
  uint64_t checkpoint_interval_ticks = 0;

  Duration heartbeat_interval = Duration::Millis(50);
  /// A worker silent for longer than this is fenced and replaced.
  Duration heartbeat_deadline = Duration::Millis(750);
  /// How long Tick() waits for one worker's result before declaring the
  /// worker dead and failing over.
  Duration reply_timeout = Duration::Seconds(10);
  Duration connect_timeout = Duration::Seconds(5);
  Duration write_timeout = Duration::Seconds(5);
  size_t max_frame_bytes = net::kDefaultMaxFrameBytes;

  /// Failovers of one slot within a single Tick() before giving up — the
  /// crash-loop brake (a worker that dies during every recovery is a
  /// persistent fault no respawn fixes).
  size_t max_failovers_per_tick = 4;

  /// Liveness clock; injected for deterministic tests. Defaults to
  /// SteadyNow(). Distinct from the virtual tick clock.
  std::function<Timestamp()> clock;
};

struct ClusterStats {
  int64_t ticks = 0;
  int64_t batches_sent = 0;
  int64_t readings_routed = 0;
  int64_t worker_deaths = 0;
  int64_t workers_spawned = 0;
  /// Frames dropped because they carried a fenced (stale) epoch.
  int64_t fenced_frames = 0;
  /// Tick results dropped as duplicates of an already-merged tick (the
  /// worker re-offering its buffered result after a reconnect).
  int64_t duplicate_results = 0;
  int64_t heartbeats_received = 0;
  int64_t stage_errors = 0;
  /// One sample per failover: death detection -> replacement recovered,
  /// welcomed, and unacked traffic resent. Milliseconds.
  std::vector<double> recovery_ms;
};

/// \brief The cluster head: routes device streams to worker processes by
/// proximity-group hash, drives the shared tick clock, collects each
/// worker's post-Merge partial aggregates, and runs the cross-group
/// Arbitrate and cross-type Virtualize centrally — the distributed
/// deployment of the paper's pipeline with the same bitwise-equivalence
/// guarantee the sharded engine proves in-process (docs/DISTRIBUTED.md).
///
/// Failure model: workers heartbeat over their coordinator link; a worker
/// that misses the heartbeat deadline, drops its connection, or fails to
/// answer a tick is fenced (its epoch is bumped — every frame it may still
/// emit is dropped on arrival), killed, and replaced by a new process that
/// recovers from the slot's checkpoint + journal suffix. In-flight frames
/// for the dead epoch are either replayed exactly once (the replacement's
/// Welcome cursor tells the coordinator what to resend) or provably
/// discarded (fenced).
///
/// Configuration mirrors EspProcessor: AddProximityGroup / AddPipeline /
/// SetHealthPolicy / SetVirtualize, then Start(supervisor). Pipelines,
/// policy and readings are checked by the same EngineTail front door as
/// the in-process engines, and the reassembled partials run through the
/// same tail. Per tick: Push
/// readings, then Tick(now) — tick times must be STRICTLY increasing (the
/// tick time doubles as the cluster-wide result key). Single-threaded; one
/// owner drives it.
class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(ClusterOptions options);
  ~ClusterCoordinator();
  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  Status AddProximityGroup(core::ProximityGroup group);
  Status AddPipeline(core::DeviceTypePipeline pipeline);
  Status SetHealthPolicy(core::HealthPolicy policy);
  void SetVirtualize(std::unique_ptr<core::Stage> stage) {
    tail_.SetVirtualize(std::move(stage));
  }

  /// Spawns and connects every worker (fresh storage, epoch 1). The
  /// supervisor must outlive the coordinator.
  Status Start(WorkerSupervisor* supervisor);

  /// Routes one reading to its proximity group's worker (buffered; flushed
  /// as atomic batches at the next Tick). Validates type, schema, and
  /// receptor membership up front, with EspProcessor::Push's verdicts.
  Status Push(const std::string& device_type, stream::Tuple raw);

  /// Flushes routed readings, ticks every worker, awaits and reassembles
  /// their partials in global group-registration order, then runs the
  /// EngineTail — returning exactly what a single EspProcessor over the
  /// same inputs would. Fails over dead workers as needed.
  StatusOr<core::TickResult> Tick(Timestamp now);

  /// Broadcasts an (unsequenced, idempotent) checkpoint request.
  Status Checkpoint();

  /// Drains heartbeats and fails over any slot past the heartbeat
  /// deadline — the between-ticks death detector. Cheap when all is well.
  Status CheckLiveness();

  /// Kills every worker. Idempotent; also run by the destructor.
  Status Stop();

  /// Which slot a proximity group lives on (valid after Start).
  StatusOr<uint32_t> SlotOfGroup(const std::string& device_type,
                                 const std::string& group_id) const;

  /// The live worker process handle for a slot — the chaos harness's
  /// SIGKILL target. -1 when unseated.
  int64_t worker_pid(uint32_t slot) const;

  uint64_t worker_epoch(uint32_t slot) const;

  const ClusterStats& stats() const { return stats_; }

 private:
  struct PendingReading {
    std::string device_type;  // Canonical (pipeline) spelling.
    stream::Tuple reading;
  };

  struct UnackedFrame {
    uint64_t seq = 0;
    std::string bytes;
  };

  /// Coordinator-side state of one worker slot.
  struct WorkerLink {
    uint32_t slot = 0;
    uint64_t epoch = 0;
    int64_t pid = -1;
    uint16_t port = 0;
    net::UniqueFd fd;
    net::FrameDecoder decoder;
    uint64_t next_seq = 1;
    uint64_t last_acked = 0;
    std::deque<UnackedFrame> unacked;
    std::vector<PendingReading> pending;
    /// Partials received for the tick currently being awaited.
    std::optional<std::vector<net::WirePartial>> result;

    WorkerLink() : decoder(net::kDefaultMaxFrameBytes) {}
  };

  uint32_t AssignSlot(const std::string& device_type,
                      const std::string& group_id) const;
  WorkerSpawnSpec MakeSpawnSpec(uint32_t slot, uint64_t epoch,
                                bool resume) const;

  /// Spawns (or respawns) the slot's worker and completes the handshake:
  /// dial, ClusterHello, Welcome, prune acked, resend unacked in order.
  Status SpawnAndConnect(WorkerLink& link, bool resume);

  /// Fences, kills, respawns, and resumes one slot; records a recovery
  /// sample.
  Status Failover(WorkerLink& link);

  /// Queues one sequenced frame and attempts transmission (a failure only
  /// drops the connection; the frame is resent after failover).
  void SendSequenced(WorkerLink& link,
                     const std::function<std::string(uint64_t seq)>& encode);

  /// Encodes and sends the slot's pending readings as per-type batches.
  void FlushPushes(WorkerLink& link);

  /// Processes one frame from a worker. `awaiting` is the tick time Tick()
  /// is currently collecting (nullopt outside Tick).
  Status HandleWorkerFrame(WorkerLink& link, const std::string& payload,
                           const std::optional<Timestamp>& awaiting);

  /// Reads until the link has produced a result for `now`, failing over on
  /// death. Bounded by reply_timeout per attempt and
  /// max_failovers_per_tick.
  Status AwaitResult(WorkerLink& link, Timestamp now);

  /// Non-blocking drain of whatever the link's socket holds.
  Status DrainLink(WorkerLink& link,
                   const std::optional<Timestamp>& awaiting);

  ClusterOptions options_;
  WorkerSupervisor* supervisor_ = nullptr;
  MembershipTable membership_;
  ClusterStats stats_;

  // Deployment configuration (pre-Start).
  std::vector<core::ProximityGroup> groups_;
  /// Pipelines, health policy, Arbitrate / Virtualize, and their
  /// stage-error tallies.
  core::EngineTail tail_;
  /// Per type (tail order): its groups' ids in global registration order —
  /// the reassembly order that reproduces the monolith's Union.
  std::vector<std::vector<std::string>> group_order_;

  /// Arbitrate-stripped, never-ticked local twin of the deployment: the
  /// schema oracle for group output schemas (partial decoding and the
  /// tail's binding), never fed any data.
  std::unique_ptr<core::EspProcessor> oracle_;

  /// (device_type '\0' receptor_id) -> slot, case-insensitive.
  std::unordered_map<std::string, uint32_t, AsciiCaseHash, AsciiCaseEq>
      receptor_slot_;
  /// "type\0group" -> slot.
  std::map<std::string, uint32_t> group_slot_;

  std::vector<WorkerLink> links_;
  bool started_ = false;
  bool has_ticked_ = false;
  Timestamp last_tick_;
  uint64_t ticks_since_checkpoint_ = 0;
};

}  // namespace esp::cluster

#endif  // ESP_CLUSTER_COORDINATOR_H_
