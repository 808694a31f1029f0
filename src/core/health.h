#ifndef ESP_CORE_HEALTH_H_
#define ESP_CORE_HEALTH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "common/time.h"
#include "core/metrics.h"
#include "cql/query_registry.h"

namespace esp::core {

/// \brief What the processor does when a stage returns non-OK mid-tick.
enum class StageErrorPolicy {
  /// Record the error in PipelineHealth and keep the cascade running: the
  /// failing stage passes its input through unchanged when the schemas
  /// match, or contributes an empty relation otherwise. The default.
  kDegrade,
  /// Abort the tick and surface the stage's Status to the caller — the
  /// pre-hardening behaviour, kept for tests and debugging.
  kFailFast,
};

const char* StageErrorPolicyToString(StageErrorPolicy policy);

/// \brief Liveness states of one receptor as tracked by the processor.
///
/// healthy --(silent > staleness_threshold)--> suspect
/// suspect --(data arrives)-----------------> healthy
/// suspect --(silent > quarantine_timeout)--> quarantined
/// quarantined --(data at a revival probe)--> healthy
///
/// While quarantined, the receptor's readings are discarded (and counted)
/// except at revival probes, which are scheduled with exponential backoff.
enum class ReceptorState { kHealthy, kSuspect, kQuarantined };

const char* ReceptorStateToString(ReceptorState state);

/// \brief Degraded-mode knobs of the processor. The zero-valued defaults
/// disable liveness tracking and lateness tolerance, preserving the strict
/// historical contract; deployments opt in via EspProcessor::SetHealthPolicy
/// or a `[health]` section in the deployment spec.
struct HealthPolicy {
  /// A receptor silent for longer than this is marked suspect. Zero
  /// disables liveness tracking (no receptor ever leaves kHealthy). Must be
  /// larger than `lateness_horizon`, since admitted-late readings make a
  /// live receptor's newest data appear up to one horizon old.
  Duration staleness_threshold = Duration::Zero();

  /// A suspect receptor still silent after this long is quarantined:
  /// removed from its proximity group (Merge degrades to the surviving
  /// members) and its readings discarded until a revival probe succeeds.
  Duration quarantine_timeout = Duration::Zero();

  /// Delay until the first revival probe after quarantine; doubles after
  /// every failed probe up to `max_revival_backoff`.
  Duration revival_backoff = Duration::Seconds(1);
  Duration max_revival_backoff = Duration::Seconds(60);

  /// Readings older than the previous tick are admitted (buffered and
  /// released in timestamp order) as long as they are at most this late;
  /// beyond the horizon they are dropped, counted, and Push returns
  /// kOutOfRange. Non-zero horizons delay the release of *all* readings by
  /// the horizon (watermark semantics), which keeps every stage's input
  /// streams ordered even under reordering and clock-skew faults.
  Duration lateness_horizon = Duration::Zero();

  /// Per-stage error isolation policy (see StageErrorPolicy).
  StageErrorPolicy stage_error_policy = StageErrorPolicy::kDegrade;

  bool liveness_enabled() const {
    return staleness_threshold > Duration::Zero();
  }
};

/// \brief Health snapshot of one receptor.
struct ReceptorHealth {
  std::string receptor_id;
  std::string device_type;
  ReceptorState state = ReceptorState::kHealthy;

  /// Newest reading timestamp seen (initialized to the first tick time so
  /// staleness is measured from experiment start for silent receptors).
  Timestamp last_seen;
  bool ever_delivered = false;

  Timestamp suspect_since;      // Valid while suspect.
  Timestamp quarantined_since;  // Valid while quarantined.
  Timestamp next_probe;         // Valid while quarantined.
  Duration probe_backoff;       // Current probe backoff while quarantined.

  int64_t delivered = 0;            // Readings released into the pipeline.
  int64_t late_admitted = 0;        // Late but within the horizon.
  int64_t dropped_late = 0;         // Beyond the horizon; rejected at Push.
  int64_t dropped_quarantined = 0;  // Discarded while quarantined.
  int64_t quarantine_count = 0;     // Times the receptor was quarantined.
  int64_t revival_count = 0;        // Times it was revived by a probe.
  std::string last_error;           // Last stage error attributed to it.
};

/// \brief Error tally for one stage instance (e.g. "rfid/Smooth[reader_0]").
struct StageErrorStat {
  std::string stage;
  int64_t errors = 0;
  std::string last_message;
};

/// \brief Per-client ingest accounting for the networked front door
/// (net/ingest_server.h), keyed by the client id presented in the wire
/// handshake. A "client" persists across reconnects of the same id.
struct ClientIngestStats {
  std::string client_id;
  int64_t connects = 0;    // Connections that completed the handshake.
  int64_t reconnects = 0;  // Handshakes after the first (resume path).
  int64_t batches_applied = 0;
  int64_t readings_applied = 0;
  int64_t ticks_applied = 0;
  /// Frames whose sequence number the server had already applied —
  /// retransmissions after a reconnect or wire-level duplicate delivery.
  int64_t duplicate_frames_dropped = 0;
  int64_t shed_batches = 0;  // Dropped by the shed backpressure policy.
  int64_t shed_readings = 0;
  int64_t torn_frames = 0;  // Undecodable frames (CRC/oversize/garbage).
  /// Readings the sink rejected (late arrival, unknown receptor); they are
  /// acked — replay of a journaling sink re-rejects them identically.
  int64_t rejected_readings = 0;
  uint64_t last_applied_seq = 0;
};

/// \brief Aggregate counters of the networked ingest server, written by
/// net::IngestServer on its event-loop thread and surfaced through
/// EspProcessor::Health() next to liveness and durability (zero unless an
/// ingest server fronts the engine).
struct IngestStats {
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  /// Over the max_connections cap, or a socket that could not be
  /// configured or registered.
  int64_t connections_rejected = 0;
  /// Older connection evicted because its client id reconnected; the
  /// evicted connection's queued-but-unapplied frames are dropped without
  /// committing (the new connection's resume covers them).
  int64_t superseded_closes = 0;
  int64_t active_connections = 0;
  int64_t reconnects = 0;
  int64_t bytes_received = 0;
  int64_t frames_decoded = 0;
  int64_t batches_applied = 0;
  int64_t readings_applied = 0;
  int64_t ticks_applied = 0;
  int64_t duplicate_frames_dropped = 0;
  int64_t sequence_gap_closes = 0;  // Seq jumped forward: conn closed.
  int64_t torn_frame_closes = 0;    // Undecodable input: conn closed.
  int64_t protocol_error_closes = 0;  // E.g. data before the handshake.
  int64_t shed_batches = 0;
  int64_t shed_readings = 0;
  int64_t rejected_readings = 0;
  int64_t rejected_ticks = 0;
  int64_t read_timeout_closes = 0;  // Slow-loris reaping (partial frame).
  int64_t idle_closes = 0;
  /// Per-client breakdown, sorted by client id.
  std::vector<ClientIngestStats> clients;

  /// True once any connection was attempted — gates health reporting.
  bool active() const {
    return connections_accepted > 0 || connections_rejected > 0;
  }

  /// One-line summary for health reports.
  std::string ToString() const;
};

/// Pull source for the ingest counters surfaced by Health(): installed by
/// net::IngestServer (backed by its mutex-guarded snapshot while running,
/// a frozen copy after Stop()) so live Health() calls never race the
/// server's event loop.
using IngestStatsSource = std::function<IngestStats()>;

/// Columnar data-plane counters (stream/column.h, stream/simd_kernels.h):
/// whether the columnar toggle is on and how the aggregate/predicate kernels
/// have been dispatching process-wide since the last stats reset.
struct ColumnarStats {
  bool enabled = false;
  bool avx2 = false;  // Runtime CPU support (not whether it was used).
  uint64_t vector_batches = 0;
  uint64_t scalar_batches = 0;
  uint64_t guard_fallbacks = 0;

  bool active() const { return vector_batches + scalar_batches > 0; }
  std::string ToString() const;
};

/// \brief Queryable health snapshot of the whole pipeline, aggregated by
/// EspProcessor::Health(): per-receptor liveness plus per-stage error
/// isolation tallies.
struct PipelineHealth {
  std::vector<ReceptorHealth> receptors;
  std::vector<StageErrorStat> stage_errors;

  /// Columnar execution counters (process-wide kernel dispatch tallies).
  ColumnarStats columnar;

  /// Durability counters (zero unless a RecoveryCoordinator drives the
  /// processor).
  RecoveryStats recovery;

  /// Networked-ingest counters (zero unless an IngestServer fronts the
  /// engine).
  IngestStats ingest;

  /// Multi-tenant query-serving counters (zero unless standing queries are
  /// registered; cql/query_registry.h).
  cql::QueryServingStats queries;

  int64_t total_stage_errors = 0;
  int64_t total_late_admitted = 0;
  int64_t total_dropped_late = 0;
  int64_t total_dropped_quarantined = 0;
  size_t quarantined_now = 0;
  size_t suspect_now = 0;

  /// Human-readable multi-line report (used by the chaos benches).
  std::string ToString() const;
};

/// \brief The per-receptor liveness/quarantine state machine.
///
/// Deterministic: driven exclusively by reading timestamps and tick times.
/// The processor owns one tracker per receptor chain and calls Observe()
/// exactly once per tick; the class is exposed for direct unit testing.
class ReceptorHealthTracker {
 public:
  /// `policy` must outlive the tracker.
  ReceptorHealthTracker(std::string receptor_id, std::string device_type,
                        const HealthPolicy* policy);

  /// State transition taken by one Observe() call.
  enum class Transition {
    kNone,
    kSuspect,      // healthy -> suspect
    kRecover,      // suspect -> healthy (data arrived in time)
    kQuarantine,   // suspect -> quarantined
    kProbeFailed,  // quarantined, probe due, still silent: backoff doubles
    kRevive,       // quarantined -> healthy (data arrived at a probe)
  };

  /// Advances the state machine to tick time `now`. `data_time` is the
  /// newest reading timestamp released this tick (nullopt when the receptor
  /// delivered nothing). At most one transition occurs per call.
  Transition Observe(Timestamp now, std::optional<Timestamp> data_time);

  // Accounting hooks (Push/release paths).
  void RecordDelivered(int64_t count) { health_.delivered += count; }
  void RecordLateAdmitted(int64_t count) { health_.late_admitted += count; }
  void RecordDroppedLate(int64_t count) { health_.dropped_late += count; }
  void RecordDroppedQuarantined(int64_t count) {
    health_.dropped_quarantined += count;
  }
  void RecordError(const Status& status) {
    health_.last_error = status.ToString();
  }

  const ReceptorHealth& health() const { return health_; }
  ReceptorState state() const { return health_.state; }

  /// Serializes / restores the tracker's mutable state for a pipeline
  /// checkpoint (receptor id, device type, and policy are configuration and
  /// are not serialized).
  void SaveState(ByteWriter& w) const;
  Status LoadState(ByteReader& r);

 private:
  const HealthPolicy* policy_;
  ReceptorHealth health_;
  bool baseline_set_ = false;
};

}  // namespace esp::core

#endif  // ESP_CORE_HEALTH_H_
