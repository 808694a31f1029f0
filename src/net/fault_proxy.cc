#include "net/fault_proxy.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

namespace esp::net {

namespace {

constexpr int kPollMs = 20;
constexpr size_t kChunkBytes = 16 * 1024;

bool SendAllBlocking(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

FaultProxy::FaultProxy(FaultProxyOptions options)
    : options_(std::move(options)),
      client_to_server_{&options_.client_to_server,
                        Rng(options_.client_to_server.seed),
                        &FaultProxyStats::client_to_server},
      server_to_client_{&options_.server_to_client,
                        Rng(options_.server_to_client.seed),
                        &FaultProxyStats::server_to_client} {}

FaultProxy::~FaultProxy() { Stop(); }

StatusOr<std::unique_ptr<FaultProxy>> FaultProxy::Start(
    FaultProxyOptions options) {
  std::unique_ptr<FaultProxy> proxy(new FaultProxy(std::move(options)));
  ESP_RETURN_IF_ERROR(proxy->Init());
  proxy->running_.store(true);
  proxy->loop_ = std::thread([raw = proxy.get()] { raw->Loop(); });
  return proxy;
}

Status FaultProxy::Init() {
  ESP_ASSIGN_OR_RETURN(
      ListenSocket listener,
      TcpListen(options_.bind_address, options_.listen_port));
  listen_fd_ = std::move(listener.fd);
  port_ = listener.port;
  return Status::OK();
}

void FaultProxy::Stop() {
  running_.store(false);
  if (loop_.joinable()) loop_.join();
  pairs_.clear();
}

FaultProxyStats FaultProxy::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void FaultProxy::Loop() {
  while (running_.load()) {
    std::vector<struct pollfd> fds;
    fds.push_back({listen_fd_.get(), POLLIN, 0});
    for (const Pair& pair : pairs_) {
      fds.push_back({pair.client.get(), POLLIN, 0});
      fds.push_back({pair.upstream.get(), POLLIN, 0});
    }
    const int n = ::poll(fds.data(), fds.size(), kPollMs);
    if (n < 0 && errno != EINTR) break;
    if (n <= 0) continue;

    if (fds[0].revents & POLLIN) HandleAccept();

    // Walk the pairs; tear down any whose forwarding failed. Index math:
    // pair i owns fds[1 + 2i] (client) and fds[2 + 2i] (upstream).
    std::vector<size_t> dead;
    for (size_t i = 0; i < pairs_.size(); ++i) {
      const size_t ci = 1 + 2 * i;
      const size_t ui = ci + 1;
      if (ci >= fds.size() || ui >= fds.size()) break;  // Accepted this pass.
      bool alive = true;
      if (fds[ci].revents & (POLLIN | POLLHUP | POLLERR)) {
        alive = ForwardChunk(pairs_[i].client.get(),
                             pairs_[i].upstream.get(), client_to_server_);
      }
      if (alive && (fds[ui].revents & (POLLIN | POLLHUP | POLLERR))) {
        alive = ForwardChunk(pairs_[i].upstream.get(),
                             pairs_[i].client.get(), server_to_client_);
      }
      if (!alive) dead.push_back(i);
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
      pairs_.erase(pairs_.begin() + static_cast<ptrdiff_t>(*it));
    }
  }
}

void FaultProxy::HandleAccept() {
  for (;;) {
    StatusOr<std::optional<UniqueFd>> accepted =
        TcpAccept(listen_fd_.get(), /*nonblocking=*/false);
    if (!accepted.ok()) continue;  // Not configurable; already closed.
    if (!accepted->has_value()) return;  // None pending: next pass.
    UniqueFd client = std::move(**accepted);
    StatusOr<UniqueFd> upstream = TcpConnect(
        options_.target_host, options_.target_port, Duration::Seconds(5));
    if (!upstream.ok()) continue;  // Drop the client; it will retry.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.connections++;
    }
    Pair pair;
    pair.client = std::move(client);
    pair.upstream = std::move(*upstream);
    pairs_.push_back(std::move(pair));
  }
}

bool FaultProxy::ForwardChunk(int from, int to, Direction& dir) {
  char buf[kChunkBytes];
  const ssize_t n = ::recv(from, buf, sizeof(buf), MSG_DONTWAIT);
  if (n == 0) return false;  // EOF: tear down the pair.
  if (n < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
  std::string_view chunk(buf, static_cast<size_t>(n));
  const FaultDirectionOptions& knobs = *dir.options;
  FaultDirectionStats& tally = stats_.*(dir.stats);

  if (knobs.any()) {
    if (dir.rng.Bernoulli(knobs.p_reset)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      tally.resets++;
      return false;  // Mid-stream reset: nothing forwarded.
    }
    if (dir.rng.Bernoulli(knobs.p_truncate)) {
      // Deliver a strict prefix (possibly cutting a frame in half), then
      // kill the pair — the mid-frame-cut shape.
      const size_t keep = static_cast<size_t>(
          dir.rng.UniformInt(0, static_cast<int64_t>(chunk.size()) - 1));
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        tally.truncations++;
      }
      if (keep > 0) SendAllBlocking(to, chunk.substr(0, keep));
      return false;
    }
    std::string mutated;
    if (dir.rng.Bernoulli(knobs.p_corrupt)) {
      mutated.assign(chunk);
      const size_t at = static_cast<size_t>(
          dir.rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<char>(mutated[at] ^ 0x5a);
      chunk = mutated;
      std::lock_guard<std::mutex> lock(stats_mu_);
      tally.corruptions++;
    }
    if (dir.rng.Bernoulli(knobs.p_stall)) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        tally.stalls++;
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(knobs.stall.micros()));
    }
    const bool duplicate = dir.rng.Bernoulli(knobs.p_duplicate);
    if (!SendAllBlocking(to, chunk)) return false;
    if (duplicate) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        tally.duplicates++;
      }
      if (!SendAllBlocking(to, chunk)) return false;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    tally.chunks_forwarded++;
    return true;
  }

  if (!SendAllBlocking(to, chunk)) return false;
  std::lock_guard<std::mutex> lock(stats_mu_);
  tally.chunks_forwarded++;
  return true;
}

}  // namespace esp::net
