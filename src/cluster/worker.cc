#include "cluster/worker.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "net/socket.h"

namespace esp::cluster {

namespace {

using core::RecoveryCoordinator;
using net::FrameDecoder;
using net::MessageKind;
using net::SequenceTracker;

/// Encodes one tick's partial aggregates as the kTickResult frame this
/// worker would (re)send for it.
std::string EncodeResultFrame(const WorkerOptions& options, Timestamp now,
                              std::vector<core::GroupPartial> partials) {
  net::TickResultMessage msg;
  msg.slot = options.slot;
  msg.epoch = options.epoch;
  msg.tick_time = now;
  msg.partials = std::move(partials);
  return net::EncodeTickResult(msg);
}

/// One live coordinator session.
struct Session {
  net::UniqueFd fd;
  FrameDecoder decoder;
  bool welcomed = false;

  explicit Session(size_t max_frame_bytes) : decoder(max_frame_bytes) {}
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Status RunWorker(const WorkerOptions& options, const EngineFactory& factory) {
  ESP_ASSIGN_OR_RETURN(std::unique_ptr<core::StreamEngine> engine, factory());
  // Ticks stop at Merge; the coordinator runs the tail over every slot's
  // partials.
  engine->SetExportGroupPartials(true);

  core::RecoveryOptions ropts = options.recovery;
  // Cluster invariant: checkpoints happen only on coordinator request,
  // after the tick they cover has been merged (see worker.h).
  ropts.checkpoint_interval_ticks = 0;

  // The most recent tick result, kept encoded for re-send after the next
  // Welcome. Replay rebuilds it for a replacement worker.
  std::optional<std::string> last_result_frame;

  std::unique_ptr<RecoveryCoordinator> recovery;
  if (options.resume) {
    const auto on_replayed =
        [&](Timestamp now, const core::TickResult& result) -> Status {
      last_result_frame =
          EncodeResultFrame(options, now, result.group_partials);
      return Status::OK();
    };
    ESP_ASSIGN_OR_RETURN(recovery,
                         RecoveryCoordinator::Resume(engine.get(), ropts,
                                                     /*report=*/nullptr,
                                                     on_replayed));
  } else {
    ESP_ASSIGN_OR_RETURN(recovery,
                         RecoveryCoordinator::Start(engine.get(), ropts));
  }

  ESP_ASSIGN_OR_RETURN(net::ListenSocket listener,
                       net::TcpListen(options.bind_address, options.port));
  if (options.port_report_fd >= 0) {
    const uint16_t port = listener.port;
    const char bytes[2] = {static_cast<char>(port & 0xff),
                           static_cast<char>((port >> 8) & 0xff)};
    size_t written = 0;
    while (written < sizeof(bytes)) {
      const ssize_t n = ::write(options.port_report_fd, bytes + written,
                                sizeof(bytes) - written);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // Supervisor gone; keep serving regardless.
      written += static_cast<size_t>(n);
    }
    ::close(options.port_report_fd);
  }

  // One applied sequenced frame == one journal record, so the journal
  // length is the resume cursor a fresh OR recovered worker hands back.
  SequenceTracker tracker;
  tracker.Reset(recovery->journal_records());

  std::optional<Session> session;
  auto last_beat = std::chrono::steady_clock::now();

  const auto send = [&](const std::string& frame) -> bool {
    if (!session.has_value()) return false;
    const Status sent =
        net::SendAll(session->fd.get(), frame, options.write_timeout);
    if (!sent.ok()) session.reset();  // Coordinator redials; we keep state.
    return sent.ok();
  };

  const auto heartbeat = [&] {
    if (!session.has_value() || !session->welcomed) return;
    net::HeartbeatMessage beat;
    beat.slot = options.slot;
    beat.epoch = options.epoch;
    beat.last_applied_seq = tracker.last_applied();
    send(net::EncodeHeartbeat(beat));
    last_beat = std::chrono::steady_clock::now();
  };

  // Handles one decoded payload; returns false when the session must be
  // torn down (protocol violation or sequence gap — the coordinator's
  // reconnect resumes from the Welcome cursor).
  const auto handle = [&](const std::string& payload) -> StatusOr<bool> {
    ESP_ASSIGN_OR_RETURN(const MessageKind kind, net::PeekKind(payload));

    if (!session->welcomed) {
      if (kind != MessageKind::kClusterHello) return false;
      ESP_ASSIGN_OR_RETURN(const net::ClusterHelloMessage hello,
                           net::DecodeClusterHello(payload));
      if (hello.slot != options.slot || hello.epoch != options.epoch) {
        // A zombie coordinator link (stale epoch) or a mis-routed dial:
        // refuse loudly, then drop the connection.
        send(net::EncodeError(Status::FailedPrecondition(
            "cluster hello for slot " + std::to_string(hello.slot) +
            " epoch " + std::to_string(hello.epoch) + ", this worker is slot " +
            std::to_string(options.slot) + " epoch " +
            std::to_string(options.epoch))));
        return false;
      }
      net::WelcomeMessage welcome;
      welcome.last_applied_seq = tracker.last_applied();
      if (!send(net::EncodeWelcome(welcome))) return false;
      // Re-offer the latest result; the coordinator dedups by tick time.
      if (last_result_frame.has_value() && !send(*last_result_frame)) {
        return false;
      }
      session->welcomed = true;
      heartbeat();
      return true;
    }

    switch (kind) {
      case MessageKind::kBatch: {
        std::string_view tuple_bytes;
        ESP_ASSIGN_OR_RETURN(const net::BatchHeader header,
                             net::DecodeBatchHeader(payload, &tuple_bytes));
        const Status admit = tracker.Check(header.seq);
        if (admit.code() == StatusCode::kAlreadyExists) {
          return send(net::EncodeAck(tracker.last_applied()));
        }
        if (!admit.ok()) return false;  // Gap: force a resume.
        ESP_ASSIGN_OR_RETURN(const stream::SchemaRef schema,
                             engine->TypeReadingSchema(header.device_type));
        ESP_ASSIGN_OR_RETURN(
            std::vector<stream::Tuple> readings,
            net::DecodeBatchTuples(header, tuple_bytes, schema));
        // Journal I/O failure is fatal — better a dead worker (the
        // coordinator fences and respawns) than an unjournaled apply.
        ESP_RETURN_IF_ERROR(
            recovery->PushBatch(header.device_type, std::move(readings)));
        tracker.Commit(header.seq);
        return send(net::EncodeAck(tracker.last_applied()));
      }
      case MessageKind::kTick: {
        ESP_ASSIGN_OR_RETURN(const net::TickMessage tick,
                             net::DecodeTick(payload));
        const Status admit = tracker.Check(tick.seq);
        if (admit.code() == StatusCode::kAlreadyExists) {
          return send(net::EncodeAck(tracker.last_applied()));
        }
        if (!admit.ok()) return false;
        ESP_ASSIGN_OR_RETURN(core::TickResult result,
                             recovery->Tick(tick.time));
        tracker.Commit(tick.seq);
        last_result_frame = EncodeResultFrame(
            options, tick.time, std::move(result.group_partials));
        if (!send(*last_result_frame)) return false;
        return send(net::EncodeAck(tracker.last_applied()));
      }
      case MessageKind::kCheckpointRequest: {
        ESP_RETURN_IF_ERROR(net::DecodeCheckpointRequest(payload));
        // Unsequenced and idempotent; TCP ordering puts it after the tick
        // it covers. No reply — the coordinator never waits on it.
        ESP_RETURN_IF_ERROR(recovery->Checkpoint());
        return true;
      }
      default:
        return false;  // Protocol violation.
    }
  };

  for (;;) {
    if (options.stop != nullptr && options.stop->load()) return Status::OK();

    struct pollfd fds[2];
    fds[0] = {listener.fd.get(), POLLIN, 0};
    nfds_t nfds = 1;
    if (session.has_value()) {
      fds[1] = {session->fd.get(), POLLIN, 0};
      nfds = 2;
    }
    const int poll_ms = static_cast<int>(
        std::max<int64_t>(1, options.heartbeat_interval.micros() / 1000 / 2));
    const int n = ::poll(fds, nfds, poll_ms);
    if (n < 0 && errno != EINTR) return Status::FromErrno("poll", errno);

    if (n > 0 && (fds[0].revents & POLLIN)) {
      // A dial that could not be configured is dropped (closed); the
      // coordinator redials.
      StatusOr<std::optional<net::UniqueFd>> accepted =
          net::TcpAccept(listener.fd.get(), /*nonblocking=*/false);
      if (accepted.ok() && accepted->has_value()) {
        // The newest dial wins: the coordinator only redials after it gave
        // up on the previous connection.
        session.emplace(options.max_frame_bytes);
        session->fd = std::move(**accepted);
      }
    }

    if (session.has_value() && nfds == 2 &&
        (fds[1].revents & (POLLIN | POLLHUP | POLLERR))) {
      char buf[64 * 1024];
      for (;;) {
        const ssize_t got =
            ::recv(session->fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
        if (got > 0) {
          session->decoder.Feed(
              std::string_view(buf, static_cast<size_t>(got)));
          continue;
        }
        if (got == 0) {
          session.reset();  // Orderly close; await the redial.
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          session.reset();
        }
        break;
      }
      while (session.has_value()) {
        StatusOr<std::optional<std::string>> next = session->decoder.Next();
        if (!next.ok()) {
          session.reset();  // Framing lost; the redial starts clean.
          break;
        }
        if (!next->has_value()) break;
        StatusOr<bool> keep = handle(**next);
        if (!keep.ok()) return keep.status();  // Fatal (journal I/O).
        if (!*keep) {
          session.reset();
          break;
        }
      }
    }

    if (SecondsSince(last_beat) >=
        options.heartbeat_interval.seconds()) {
      heartbeat();
    }
  }
}

}  // namespace esp::cluster
