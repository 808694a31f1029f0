#include "net/ingest_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace esp::net {

namespace {

constexpr int kEpollWaitMs = 20;
constexpr size_t kRecvChunkBytes = 64 * 1024;

/// Epoll event tag: the fd in the low 32 bits, the connection generation in
/// the high 32 (0 for the listener and wakeup fds, which are never
/// recycled while the loop runs).
uint64_t EpollTag(int fd, uint64_t generation) {
  return (generation << 32) | static_cast<uint32_t>(fd);
}

}  // namespace

StatusOr<BackpressurePolicy> ParseBackpressurePolicy(const std::string& text) {
  if (text == "block") return BackpressurePolicy::kBlock;
  if (text == "shed") return BackpressurePolicy::kShed;
  return Status::InvalidArgument("unknown backpressure policy '" + text +
                                 "' (expected 'block' or 'shed')");
}

StatusOr<IngestServerOptions> MakeIngestServerOptions(
    const core::IngestSpecOptions& spec) {
  IngestServerOptions options;
  options.bind_address = spec.bind_address;
  options.port = spec.port;
  options.max_connections = static_cast<size_t>(spec.max_connections);
  options.queue_limit_frames = static_cast<size_t>(spec.queue_limit_frames);
  options.max_frame_bytes = static_cast<size_t>(spec.max_frame_bytes);
  options.read_timeout = spec.read_timeout;
  options.idle_timeout = spec.idle_timeout;
  ESP_ASSIGN_OR_RETURN(options.backpressure,
                       ParseBackpressurePolicy(spec.backpressure));
  return options;
}

IngestServer::IngestServer(IngestSink* sink, IngestServerOptions options)
    : sink_(sink), options_(std::move(options)) {}

IngestServer::~IngestServer() { Stop(); }

StatusOr<std::unique_ptr<IngestServer>> IngestServer::Start(
    IngestSink* sink, IngestServerOptions options) {
  if (sink == nullptr) {
    return Status::InvalidArgument("ingest server needs a sink");
  }
  if (options.queue_limit_frames == 0) {
    return Status::InvalidArgument("queue_limit_frames must be positive");
  }
  std::unique_ptr<IngestServer> server(
      new IngestServer(sink, std::move(options)));
  ESP_RETURN_IF_ERROR(server->Init());
  // Engine Health() pulls counters through the mutex-guarded snapshot, so
  // it is safe from any thread while the loop runs. Stop() freezes a final
  // copy before the server (and this lambda's target) can go away.
  sink->SetStatsSource(
      [raw = server.get()] { return raw->StatsSnapshot(); });
  server->running_.store(true);
  server->loop_ = std::thread([raw = server.get()] { raw->Loop(); });
  return server;
}

Status IngestServer::Init() {
  ESP_ASSIGN_OR_RETURN(
      ListenSocket listener,
      TcpListen(options_.bind_address, options_.port));
  listen_fd_ = std::move(listener.fd);
  port_ = listener.port;

  epoll_fd_.reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) return Status::FromErrno("epoll_create1", errno);
  wake_fd_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_fd_.valid()) return Status::FromErrno("eventfd", errno);

  struct epoll_event ev;
  ev.events = EPOLLIN;
  ev.data.u64 = EpollTag(listen_fd_.get(), 0);
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &ev) <
      0) {
    return Status::FromErrno("epoll_ctl(listen)", errno);
  }
  ev.data.u64 = EpollTag(wake_fd_.get(), 0);
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) < 0) {
    return Status::FromErrno("epoll_ctl(wakeup)", errno);
  }
  return Status::OK();
}

void IngestServer::Stop() {
  const bool was_running = running_.exchange(false);
  if (was_running) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(wake_fd_.get(), &one, sizeof(one));
  }
  if (loop_.joinable()) loop_.join();
  if (was_running) {
    // Replace the live source (which points at this server) with a frozen
    // copy of the final counters, so Health() keeps working after the
    // server is destroyed.
    sink_->SetStatsSource(
        [final = StatsSnapshot()] { return final; });
  }
}

core::IngestStats IngestServer::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void IngestServer::Loop() {
  struct epoll_event events[64];
  while (running_.load()) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, 64, kEpollWaitMs);
    if (n < 0 && errno != EINTR) break;
    const Clock::time_point now = Clock::now();
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      const int fd = static_cast<int>(tag & 0xffffffffu);
      const uint64_t generation = tag >> 32;
      if (fd == wake_fd_.get()) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(wake_fd_.get(), &drained, sizeof(drained));
        continue;
      }
      if (fd == listen_fd_.get()) {
        HandleAccept();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // Closed earlier this pass.
      // A connection closed earlier this pass may have had its fd number
      // recycled by an accept in the same pass; events queued for the old
      // connection must not hit the new one.
      if (it->second->generation != generation) continue;
      Connection& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        if (conn.decoder.has_incomplete_frame()) {
          work_.torn_frame_closes++;
          if (conn.client != nullptr) conn.client->stats.torn_frames++;
        }
        CloseConnection(fd);
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
      if (connections_.count(fd) == 0) continue;
      if (events[i].events & EPOLLIN) HandleReadable(conn);
    }

    // Apply queued frames (bounded per connection by the budget), then
    // resume any connection kBlock paused once its queue drained.
    std::vector<int> fds;
    fds.reserve(connections_.size());
    for (const auto& [fd, conn] : connections_) fds.push_back(fd);
    for (int fd : fds) {
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      ApplyPending(*it->second);
    }

    ReapTimeouts(now);
    PublishStats();
  }

  // Shutdown: close every connection (counted) and publish finals.
  std::vector<int> fds;
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (int fd : fds) CloseConnection(fd);
  PublishStats();
}

void IngestServer::HandleAccept() {
  for (;;) {
    StatusOr<std::optional<UniqueFd>> accepted =
        TcpAccept(listen_fd_.get(), /*nonblocking=*/true);
    if (!accepted.ok()) {
      work_.connections_rejected++;  // Not configurable; already closed.
      continue;
    }
    // None pending, or a transient accept error: retry next wakeup.
    if (!accepted->has_value()) return;
    UniqueFd fd = std::move(**accepted);
    if (connections_.size() >= options_.max_connections) {
      work_.connections_rejected++;
      continue;  // UniqueFd closes it.
    }
    const int raw = fd.get();
    auto conn = std::make_unique<Connection>(
        std::move(fd), options_.max_frame_bytes, Clock::now());
    conn->generation = ++next_generation_;
    struct epoll_event ev;
    ev.events = EPOLLIN;
    ev.data.u64 = EpollTag(raw, conn->generation);
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, raw, &ev) < 0) {
      work_.connections_rejected++;
      continue;
    }
    work_.connections_accepted++;
    connections_.emplace(raw, std::move(conn));
  }
}

void IngestServer::HandleReadable(Connection& conn) {
  const int fd = conn.fd.get();
  char buf[kRecvChunkBytes];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      work_.bytes_received += n;
      conn.last_byte = Clock::now();
      conn.decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      DrainDecoder(conn);
      if (connections_.count(fd) == 0) return;  // Closed on protocol error.
      if (conn.reads_paused) return;            // kBlock: stop consuming.
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    // ECONNRESET and friends: the peer vanished.
    if (conn.decoder.has_incomplete_frame()) {
      work_.torn_frame_closes++;
      if (conn.client != nullptr) conn.client->stats.torn_frames++;
    }
    CloseConnection(fd);
    return;
  }
  // Track how long the stream has ended mid-frame (slow-loris signal).
  // Complete-but-undecoded frames parked by kBlock backpressure do not
  // count as partial — the tail sits on a frame boundary.
  if (!conn.decoder.has_incomplete_frame()) conn.partial_since = Clock::now();
  if (eof) {
    if (conn.decoder.has_incomplete_frame()) {
      work_.torn_frame_closes++;
      if (conn.client != nullptr) conn.client->stats.torn_frames++;
    }
    ApplyPending(conn);  // Don't drop fully received work.
    CloseConnection(fd);
  }
}

void IngestServer::DrainDecoder(Connection& conn) {
  const int fd = conn.fd.get();
  for (;;) {
    if (!conn.pending.empty() &&
        conn.pending.size() >= options_.queue_limit_frames &&
        options_.backpressure == BackpressurePolicy::kBlock) {
      PauseReads(conn);
      return;  // Leave undecoded bytes buffered; resume after apply.
    }
    StatusOr<std::optional<std::string>> next = conn.decoder.Next();
    if (!next.ok()) {
      // Oversized length prefix or CRC mismatch: framing is gone.
      work_.torn_frame_closes++;
      if (conn.client != nullptr) conn.client->stats.torn_frames++;
      SendErrorAndClose(conn, next.status());
      return;
    }
    if (!next.value().has_value()) return;  // Need more bytes.
    work_.frames_decoded++;
    if (!HandlePayload(conn, *next.value())) return;
    if (connections_.count(fd) == 0) return;
  }
}

bool IngestServer::HandlePayload(Connection& conn,
                                 const std::string& payload) {
  StatusOr<MessageKind> kind = PeekKind(payload);
  if (!kind.ok()) {
    work_.protocol_error_closes++;
    SendErrorAndClose(conn, kind.status());
    return false;
  }
  if (conn.client == nullptr) {
    if (kind.value() != MessageKind::kHello) {
      work_.protocol_error_closes++;
      SendErrorAndClose(
          conn, Status::InvalidArgument(
                    "expected a hello frame before any other traffic"));
      return false;
    }
    return HandleHello(conn, payload);
  }
  switch (kind.value()) {
    case MessageKind::kBatch:
      return EnqueueBatch(conn, payload);
    case MessageKind::kTick:
      return EnqueueTick(conn, payload);
    case MessageKind::kHello:
      work_.protocol_error_closes++;
      SendErrorAndClose(conn, Status::InvalidArgument(
                                  "duplicate hello on an open connection"));
      return false;
    default:
      work_.protocol_error_closes++;
      SendErrorAndClose(
          conn, Status::InvalidArgument(
                    "server-only message kind received from a client"));
      return false;
  }
}

bool IngestServer::HandleHello(Connection& conn, const std::string& payload) {
  StatusOr<HelloMessage> hello = DecodeHello(payload);
  if (!hello.ok()) {
    work_.protocol_error_closes++;
    SendErrorAndClose(conn, hello.status());
    return false;
  }
  // A reconnect supersedes any still-open connection for this client id.
  // Evict it BEFORE reading the tracker: its queued-but-unapplied frames
  // are dropped without committing, so the Welcome below reflects exactly
  // what the sink has applied and the client's resends of those sequences
  // are re-admitted once — never applied twice.
  EvictSupersededConnection(conn, hello.value().client_id);
  ClientState& client = clients_[hello.value().client_id];
  client.stats.client_id = hello.value().client_id;
  client.stats.connects++;
  if (client.stats.connects > 1) {
    client.stats.reconnects++;
    work_.reconnects++;
  }
  conn.client_id = hello.value().client_id;
  conn.client = &client;
  conn.next_expected = client.tracker.last_applied() + 1;
  WelcomeMessage welcome;
  welcome.last_applied_seq = client.tracker.last_applied();
  SendFrame(conn, EncodeWelcome(welcome));
  return true;
}

void IngestServer::EvictSupersededConnection(const Connection& keep,
                                             const std::string& client_id) {
  std::vector<int> stale;
  for (const auto& [fd, conn] : connections_) {
    if (conn.get() != &keep && conn->client_id == client_id) {
      stale.push_back(fd);
    }
  }
  for (int fd : stale) {
    work_.superseded_closes++;
    CloseConnection(fd);  // Pending frames die with it, uncommitted.
  }
}

bool IngestServer::EnqueueBatch(Connection& conn,
                                const std::string& payload) {
  std::string_view tuple_bytes;
  StatusOr<BatchHeader> header = DecodeBatchHeader(payload, &tuple_bytes);
  if (!header.ok()) {
    work_.protocol_error_closes++;
    SendErrorAndClose(conn, header.status());
    return false;
  }
  if (header.value().count > options_.max_batch_readings) {
    work_.protocol_error_closes++;
    SendErrorAndClose(
        conn, Status::OutOfRange(
                  "batch of " + std::to_string(header.value().count) +
                  " readings exceeds the " +
                  std::to_string(options_.max_batch_readings) + " cap"));
    return false;
  }
  const uint64_t seq = header.value().seq;
  if (seq < conn.next_expected) {
    // Already applied (or already queued): a resend after reconnect or a
    // wire-level duplicate. Re-ack so the client prunes it.
    work_.duplicate_frames_dropped++;
    conn.client->stats.duplicate_frames_dropped++;
    SendFrame(conn, EncodeAck(conn.client->tracker.last_applied()));
    return true;
  }
  if (seq > conn.next_expected) {
    work_.sequence_gap_closes++;
    SendErrorAndClose(
        conn, Status::OutOfRange("sequence gap: got " + std::to_string(seq) +
                                 ", expected " +
                                 std::to_string(conn.next_expected)));
    return false;
  }
  PendingFrame frame;
  frame.seq = seq;
  frame.device_type = std::move(header.value().device_type);
  frame.count = header.value().count;
  if (conn.pending.size() >= options_.queue_limit_frames &&
      options_.backpressure == BackpressurePolicy::kShed) {
    frame.shed = true;
    work_.shed_batches++;
    work_.shed_readings += frame.count;
    conn.client->stats.shed_batches++;
    conn.client->stats.shed_readings += frame.count;
  } else {
    frame.tuple_bytes = std::string(tuple_bytes);
  }
  conn.next_expected = seq + 1;
  conn.pending.push_back(std::move(frame));
  return true;
}

bool IngestServer::EnqueueTick(Connection& conn, const std::string& payload) {
  StatusOr<TickMessage> tick = DecodeTick(payload);
  if (!tick.ok()) {
    work_.protocol_error_closes++;
    SendErrorAndClose(conn, tick.status());
    return false;
  }
  const uint64_t seq = tick.value().seq;
  if (seq < conn.next_expected) {
    work_.duplicate_frames_dropped++;
    conn.client->stats.duplicate_frames_dropped++;
    SendFrame(conn, EncodeAck(conn.client->tracker.last_applied()));
    return true;
  }
  if (seq > conn.next_expected) {
    work_.sequence_gap_closes++;
    SendErrorAndClose(
        conn, Status::OutOfRange("sequence gap: got " + std::to_string(seq) +
                                 ", expected " +
                                 std::to_string(conn.next_expected)));
    return false;
  }
  // Ticks carry the experiment clock and are never shed, even over-limit.
  PendingFrame frame;
  frame.is_tick = true;
  frame.seq = seq;
  frame.tick_time = tick.value().time;
  conn.next_expected = seq + 1;
  conn.pending.push_back(std::move(frame));
  return true;
}

void IngestServer::ApplyPending(Connection& conn) {
  const int fd = conn.fd.get();
  size_t applied = 0;
  const size_t budget = options_.apply_budget_frames;
  while (!conn.pending.empty() && (budget == 0 || applied < budget)) {
    PendingFrame frame = std::move(conn.pending.front());
    conn.pending.pop_front();
    ++applied;
    if (frame.is_tick) {
      ApplyTick(conn, frame);
    } else {
      ApplyBatch(conn, frame);
    }
    if (connections_.count(fd) == 0) return;  // Closed mid-apply.
  }
  if (applied > 0) {
    SendFrame(conn, EncodeAck(conn.client->tracker.last_applied()));
    if (connections_.count(fd) == 0) return;  // Peer died mid-ack.
  }
  // kBlock backpressure: decode what buffered while paused, then re-arm.
  if (conn.reads_paused &&
      conn.pending.size() < options_.queue_limit_frames) {
    DrainDecoder(conn);
    if (connections_.count(fd) == 0) return;
    if (conn.pending.size() < options_.queue_limit_frames) {
      ResumeReads(conn);
    }
  }
}

void IngestServer::ApplyBatch(Connection& conn, PendingFrame& frame) {
  ClientState& client = *conn.client;
  if (frame.seq <= client.tracker.last_applied()) {
    // Defence in depth behind the eviction in HandleHello: a frame that was
    // admitted before this client's tracker advanced through another
    // connection must not reach the sink a second time.
    work_.duplicate_frames_dropped++;
    client.stats.duplicate_frames_dropped++;
    return;
  }
  if (frame.shed) {
    client.tracker.Commit(frame.seq);
    client.stats.last_applied_seq = frame.seq;
    return;
  }
  StatusOr<stream::SchemaRef> schema = sink_->ReadingSchema(frame.device_type);
  if (!schema.ok()) {
    // Unknown device type: an application-level reject, applied (and thus
    // acked) as "drop all readings" — deterministic under replay.
    work_.rejected_readings += frame.count;
    client.stats.rejected_readings += frame.count;
    client.tracker.Commit(frame.seq);
    client.stats.last_applied_seq = frame.seq;
    return;
  }
  BatchHeader header;
  header.seq = frame.seq;
  header.device_type = frame.device_type;
  header.count = frame.count;
  StatusOr<std::vector<stream::Tuple>> readings =
      DecodeBatchTuples(header, frame.tuple_bytes, schema.value());
  if (!readings.ok()) {
    // CRC passed but the tuples don't decode against the declared schema:
    // the client is speaking a different dialect. Unrecoverable.
    work_.protocol_error_closes++;
    SendErrorAndClose(conn, readings.status());
    return;
  }
  int64_t ok_count = 0;
  for (stream::Tuple& tuple : readings.value()) {
    const Status status = sink_->Push(frame.device_type, std::move(tuple));
    if (status.ok()) {
      ++ok_count;
    } else {
      work_.rejected_readings++;
      client.stats.rejected_readings++;
    }
  }
  work_.batches_applied++;
  work_.readings_applied += ok_count;
  client.stats.batches_applied++;
  client.stats.readings_applied += ok_count;
  client.tracker.Commit(frame.seq);
  client.stats.last_applied_seq = frame.seq;
}

void IngestServer::ApplyTick(Connection& conn, PendingFrame& frame) {
  ClientState& client = *conn.client;
  if (frame.seq <= client.tracker.last_applied()) {
    work_.duplicate_frames_dropped++;
    client.stats.duplicate_frames_dropped++;
    return;
  }
  StatusOr<core::TickResult> result = sink_->Tick(frame.tick_time);
  if (result.ok()) {
    work_.ticks_applied++;
    client.stats.ticks_applied++;
    if (options_.on_tick) options_.on_tick(frame.tick_time, result.value());
  } else {
    work_.rejected_ticks++;
  }
  client.tracker.Commit(frame.seq);
  client.stats.last_applied_seq = frame.seq;
}

void IngestServer::SendFrame(Connection& conn, std::string frame) {
  conn.outbuf.append(frame);
  FlushOutbuf(conn);
}

void IngestServer::SendErrorAndClose(Connection& conn, const Status& status) {
  conn.outbuf.append(EncodeError(status));
  conn.closing = true;
  // FlushOutbuf closes the connection once the buffer drains (immediately
  // when the kernel takes it all, via EPOLLOUT otherwise).
  FlushOutbuf(conn);
}

void IngestServer::FlushOutbuf(Connection& conn) {
  const int fd = conn.fd.get();
  while (!conn.outbuf.empty()) {
    const ssize_t n = ::send(fd, conn.outbuf.data(), conn.outbuf.size(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn.outbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateEpoll(conn, !conn.reads_paused && !conn.closing, true);
      conn.writes_armed = true;
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    // Peer is gone; nothing further to deliver.
    CloseConnection(fd);
    return;
  }
  if (conn.writes_armed) {
    conn.writes_armed = false;
    UpdateEpoll(conn, !conn.reads_paused && !conn.closing, false);
  }
  if (conn.closing) CloseConnection(fd);
}

void IngestServer::HandleWritable(Connection& conn) { FlushOutbuf(conn); }

void IngestServer::PauseReads(Connection& conn) {
  if (conn.reads_paused) return;
  conn.reads_paused = true;
  UpdateEpoll(conn, false, conn.writes_armed);
}

void IngestServer::ResumeReads(Connection& conn) {
  if (!conn.reads_paused) return;
  conn.reads_paused = false;
  // The slow-loris clock was frozen while paused (the peer was not allowed
  // to make progress); restart it so the resumed connection gets the full
  // read timeout again.
  conn.partial_since = Clock::now();
  UpdateEpoll(conn, true, conn.writes_armed);
}

void IngestServer::UpdateEpoll(Connection& conn, bool want_read,
                               bool want_write) {
  struct epoll_event ev;
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = EpollTag(conn.fd.get(), conn.generation);
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
}

void IngestServer::CloseConnection(int fd, bool count_close) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  connections_.erase(it);  // UniqueFd closes the socket.
  if (count_close) work_.connections_closed++;
}

void IngestServer::ReapTimeouts(Clock::time_point now) {
  std::vector<int> reap_read;
  std::vector<int> reap_idle;
  for (const auto& [fd, conn] : connections_) {
    // reads_paused means WE stopped reading (kBlock backpressure): the
    // client cannot make progress, so the stalled stream is the server's
    // doing, not a slow loris.
    if (!options_.read_timeout.IsZero() && !conn->reads_paused &&
        conn->decoder.has_incomplete_frame() &&
        now - conn->partial_since >=
            std::chrono::microseconds(options_.read_timeout.micros())) {
      reap_read.push_back(fd);
      continue;
    }
    if (!options_.idle_timeout.IsZero() &&
        now - conn->last_byte >=
            std::chrono::microseconds(options_.idle_timeout.micros())) {
      reap_idle.push_back(fd);
    }
  }
  for (int fd : reap_read) {
    work_.read_timeout_closes++;
    auto it = connections_.find(fd);
    if (it != connections_.end() && it->second->client != nullptr) {
      it->second->client->stats.torn_frames++;
    }
    CloseConnection(fd);
  }
  for (int fd : reap_idle) {
    work_.idle_closes++;
    CloseConnection(fd);
  }
}

void IngestServer::PublishStats() {
  work_.active_connections = static_cast<int64_t>(connections_.size());
  core::IngestStats snapshot = work_;
  snapshot.clients.reserve(clients_.size());
  for (const auto& [id, client] : clients_) {
    snapshot.clients.push_back(client.stats);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = std::move(snapshot);
}

}  // namespace esp::net
