#ifndef ESP_NET_WIRE_H_
#define ESP_NET_WIRE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "common/time.h"
#include "core/engine.h"
#include "stream/tuple.h"

namespace esp::net {

/// \file
/// Wire protocol for networked ingestion (docs/NETWORKING.md §1).
///
/// Every message travels in a length-prefixed frame using exactly the
/// journal's framing, so the wire, the write-ahead journal, and checkpoints
/// share one encoding layer (common/binio + stream/serialize):
///
///   frame   := u32 payload_len | u32 crc32(payload) | payload
///   payload := u8 kind | body            (little-endian throughout)
///
/// State-mutating messages (kBatch, kTick) carry a per-connection-stream
/// monotonic sequence number assigned by the client, starting at 1. The
/// server applies a frame exactly when seq == last_applied + 1, acks
/// cumulatively, drops already-applied sequences as duplicates, and treats
/// a forward jump as data loss (the connection is closed; the client
/// reconnects and resumes from the acked sequence). This makes delivery
/// exactly-once end to end even under truncation, duplication, and
/// mid-frame resets.

inline constexpr uint32_t kWireProtocolVersion = 1;

/// Bytes of the frame header (payload length + CRC32).
inline constexpr size_t kFrameHeaderBytes = 2 * sizeof(uint32_t);

/// Default cap on a frame's payload size. Oversized length prefixes are
/// rejected before any allocation, so a garbage header cannot balloon
/// memory.
inline constexpr size_t kDefaultMaxFrameBytes = 1 << 20;

enum class MessageKind : uint8_t {
  kHello = 1,    // client -> server: version + client id (resume key)
  kWelcome = 2,  // server -> client: last applied sequence for that id
  kBatch = 3,    // client -> server: seq + device type + readings
  kTick = 4,     // client -> server: seq + tick timestamp
  kAck = 5,      // server -> client: cumulative last applied sequence
  kError = 6,    // server -> client: status code + message, then close
  // Cluster control plane (docs/DISTRIBUTED.md). Every cluster frame
  // carries the worker's (slot, epoch) pair; a frame whose epoch differs
  // from the receiver's current epoch for that slot is FENCED — dropped
  // without effect — which is what makes a SIGKILLed worker's stragglers
  // harmless once its replacement has been seated.
  kClusterHello = 7,       // coordinator -> worker: version + slot + epoch
  kTickResult = 8,         // worker -> coordinator: partial aggregates
  kHeartbeat = 9,          // worker -> coordinator: liveness + progress
  kCheckpointRequest = 10,  // coordinator -> worker: unsequenced, idempotent
};

struct HelloMessage {
  uint32_t protocol_version = kWireProtocolVersion;
  std::string client_id;
};

struct WelcomeMessage {
  uint64_t last_applied_seq = 0;
};

struct DecodedBatch {
  uint64_t seq = 0;
  std::string device_type;
  std::vector<stream::Tuple> readings;
};

/// A batch's envelope without its readings — the server splits the header
/// off first, looks up the device type's schema, and decodes the tuple
/// bytes only when the frame is actually applied (shed frames never pay for
/// tuple decoding).
struct BatchHeader {
  uint64_t seq = 0;
  std::string device_type;
  uint32_t count = 0;
};

struct TickMessage {
  uint64_t seq = 0;
  Timestamp time;
};

struct AckMessage {
  uint64_t last_applied_seq = 0;
};

struct ErrorMessage {
  uint8_t code = 0;
  std::string message;
};

/// Coordinator-side handshake on a (re)connect to a worker. The worker
/// accepts only its own slot and its own current epoch; a stale epoch means
/// the dialer is a zombie coordinator link and the connection is refused.
struct ClusterHelloMessage {
  uint32_t protocol_version = kWireProtocolVersion;
  uint32_t slot = 0;
  uint64_t epoch = 0;
};

/// One proximity group's post-Merge partial relation inside a kTickResult:
/// the engine's own GroupPartial, so a worker ships the relations its tick
/// returned without copying them.
using WirePartial = core::GroupPartial;

/// Worker -> coordinator: the partial aggregates of one tick, identified by
/// the tick's timestamp (the cluster requires strictly increasing tick
/// times, so the timestamp is a unique tick key the coordinator dedups
/// re-sent results by).
struct TickResultMessage {
  uint32_t slot = 0;
  uint64_t epoch = 0;
  Timestamp tick_time;
  std::vector<WirePartial> partials;
};

/// Worker -> coordinator liveness beacon, carrying the worker's applied
/// high-water mark (== its journal record count; see docs/DISTRIBUTED.md).
struct HeartbeatMessage {
  uint32_t slot = 0;
  uint64_t epoch = 0;
  uint64_t last_applied_seq = 0;
};

// --- Encoders: each returns one complete frame (header + payload). ---

std::string EncodeHello(const HelloMessage& msg);
std::string EncodeWelcome(const WelcomeMessage& msg);
/// `readings` must be non-empty: empty batches are a protocol error (see
/// DecodeBatchHeader) and are never produced by IngestClient.
std::string EncodeBatch(uint64_t seq, const std::string& device_type,
                        const std::vector<stream::Tuple>& readings);
std::string EncodeTick(uint64_t seq, Timestamp now);
std::string EncodeAck(uint64_t last_applied_seq);
std::string EncodeError(const Status& status);
std::string EncodeClusterHello(const ClusterHelloMessage& msg);
std::string EncodeTickResult(const TickResultMessage& msg);
std::string EncodeHeartbeat(const HeartbeatMessage& msg);
/// Checkpoint requests carry no body and — deliberately — no sequence
/// number: they are idempotent, applied in TCP order, and excluding them
/// from the sequence stream preserves the worker's "one applied frame ==
/// one journal record" identity.
std::string EncodeCheckpointRequest();

// --- Payload decoders (over the bytes FrameDecoder yields). ---

/// Reads the payload's kind tag; kParseError on an empty payload or an
/// unknown tag.
StatusOr<MessageKind> PeekKind(std::string_view payload);

StatusOr<HelloMessage> DecodeHello(std::string_view payload);
StatusOr<WelcomeMessage> DecodeWelcome(std::string_view payload);

/// Splits a batch payload into its header and the raw tuple bytes
/// (`*tuple_bytes` views into `payload`). An empty batch (count == 0) is a
/// typed kInvalidArgument error — the protocol never carries one, so its
/// appearance means a corrupted or hostile peer.
StatusOr<BatchHeader> DecodeBatchHeader(std::string_view payload,
                                        std::string_view* tuple_bytes);

/// Decodes the readings split off by DecodeBatchHeader against `schema`.
/// Fails (kParseError / kTypeError) on count/arity mismatch or trailing
/// bytes.
StatusOr<std::vector<stream::Tuple>> DecodeBatchTuples(
    const BatchHeader& header, std::string_view tuple_bytes,
    const stream::SchemaRef& schema);

/// Convenience composition of the two halves above.
StatusOr<DecodedBatch> DecodeBatch(std::string_view payload,
                                   const stream::SchemaRef& schema);

StatusOr<TickMessage> DecodeTick(std::string_view payload);
StatusOr<AckMessage> DecodeAck(std::string_view payload);
StatusOr<ErrorMessage> DecodeError(std::string_view payload);
StatusOr<ClusterHelloMessage> DecodeClusterHello(std::string_view payload);

/// Resolves a device type to the schema its partial relations decode
/// against (the type's post-Merge group output schema).
using PartialSchemaLookup =
    std::function<StatusOr<stream::SchemaRef>(const std::string& device_type)>;

/// Decodes a tick-result payload, re-attaching each partial's schema via
/// `lookup` (the wire carries type-tagged values, so the schema supplies
/// names the frame does not repeat).
StatusOr<TickResultMessage> DecodeTickResult(std::string_view payload,
                                             const PartialSchemaLookup& lookup);
StatusOr<HeartbeatMessage> DecodeHeartbeat(std::string_view payload);
Status DecodeCheckpointRequest(std::string_view payload);

/// \brief Incremental frame reassembly over an arbitrary byte stream.
///
/// Feed() whatever the socket yields; Next() returns one complete,
/// CRC-verified payload at a time, std::nullopt when more bytes are needed,
/// or a typed error on an unrecoverable stream corruption:
///  - kOutOfRange: the length prefix exceeds `max_frame_bytes` (garbage or
///    hostile header — rejected before any allocation);
///  - kParseError: the payload's CRC32 does not match its header.
/// After an error the stream is unusable (framing is lost); the owner must
/// close the connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  /// One frame payload, nullopt for "need more bytes", or a typed error.
  StatusOr<std::optional<std::string>> Next();

  /// Validates end-of-stream: kConnectionReset when the peer closed
  /// mid-frame (a torn frame — the shape of a mid-frame disconnect), OK on
  /// a clean frame boundary.
  Status Finish() const;

  /// True only when the buffered bytes end **mid-frame**: a header shorter
  /// than kFrameHeaderBytes, or a payload shorter than its declared length.
  /// Complete frames that merely have not been pulled through Next() yet do
  /// NOT count — a backpressure-paused connection whose buffer stops at a
  /// frame boundary is neither torn nor a slow loris. This is the signal
  /// the server's read-timeout reaping and torn-frame accounting key off.
  bool has_incomplete_frame() const;

  size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  size_t pos_ = 0;  // Consumed prefix; compacted between Next() calls.
};

/// \brief Exactly-once admission bookkeeping for one client's sequence
/// stream (shared by server connections and tests).
///
/// Check() classifies a sequence number against the last applied one:
///  - OK: the next expected sequence (last_applied + 1) — apply it;
///  - kAlreadyExists: at or below last_applied — a duplicate delivery or a
///    resend after reconnect; ack it again but do not re-apply;
///  - kOutOfRange: a forward jump — frames were lost in flight, the
///    connection must be closed so the client resumes from the ack.
/// Commit() advances last_applied once the frame's effect (including a shed
/// decision) is final.
class SequenceTracker {
 public:
  Status Check(uint64_t seq) const {
    if (seq == last_applied_ + 1) return Status::OK();
    if (seq <= last_applied_) {
      return Status::AlreadyExists(
          "duplicate sequence " + std::to_string(seq) +
          " (last applied " + std::to_string(last_applied_) + ")");
    }
    return Status::OutOfRange("sequence gap: got " + std::to_string(seq) +
                              ", expected " +
                              std::to_string(last_applied_ + 1));
  }

  /// Monotonic: committing at or below last_applied is a no-op, so a stale
  /// frame (e.g. one queued on a connection that was superseded by a
  /// reconnect) can never move the high-water mark backward and re-admit
  /// already-applied sequences.
  void Commit(uint64_t seq) {
    if (seq > last_applied_) last_applied_ = seq;
  }
  void Reset(uint64_t last_applied) { last_applied_ = last_applied; }
  uint64_t last_applied() const { return last_applied_; }

 private:
  uint64_t last_applied_ = 0;
};

}  // namespace esp::net

#endif  // ESP_NET_WIRE_H_
