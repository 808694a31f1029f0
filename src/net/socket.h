#ifndef ESP_NET_SOCKET_H_
#define ESP_NET_SOCKET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "common/time.h"

namespace esp::net {

/// \brief Owns a POSIX file descriptor; closes it on destruction.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset(other.release());
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Marks `fd` non-blocking (O_NONBLOCK).
Status SetNonBlocking(int fd);

/// A freshly bound listening socket and the port it actually bound
/// (meaningful when the caller asked for port 0).
struct ListenSocket {
  UniqueFd fd;
  uint16_t port = 0;
};

/// Opens a non-blocking TCP listener on `address`:`port` (IPv4 dotted quad;
/// port 0 picks a free port). SO_REUSEADDR is set so tests can rebind
/// quickly.
StatusOr<ListenSocket> TcpListen(const std::string& address, uint16_t port,
                                 int backlog = 128);

/// The socket rule: every TCP stream the program opens (TcpConnect) or
/// accepts (TcpAccept) gets its options here, on both ends of the link.
/// Sets TCP_NODELAY: the cluster and ingest protocols answer a request
/// with several small writes, and with Nagle's algorithm on, a write behind
/// an unacknowledged one waits out the peer's delayed ACK (~40 ms on
/// Linux).
Status ConfigureStream(int fd);

/// Connects to `host`:`port` with a deadline and applies ConfigureStream.
/// The returned socket is left in BLOCKING mode (the IngestClient layers
/// poll()-based timeouts on top via SendAll/RecvSome). kTimedOut when the
/// deadline elapses, kConnectionReset when the peer refuses.
StatusOr<UniqueFd> TcpConnect(const std::string& host, uint16_t port,
                              Duration timeout);

/// Accepts one pending connection on the listener `listen_fd` and applies
/// ConfigureStream: the accept path of every server in the program. The
/// accepted socket is close-on-exec, and non-blocking when `nonblocking`.
/// nullopt when no connection could be taken (none pending, or an accept
/// error; retry on the listener's next readiness). A non-OK status means
/// one connection was taken but could not be configured; it is closed
/// already, and further pending connections may still be accepted.
StatusOr<std::optional<UniqueFd>> TcpAccept(int listen_fd, bool nonblocking);

/// Writes all of `data`, polling for writability up to `timeout` per
/// syscall. MSG_NOSIGNAL is used throughout so a dead peer surfaces as
/// kConnectionReset rather than SIGPIPE.
Status SendAll(int fd, std::string_view data, Duration timeout);

/// Reads at most `max_bytes` once the descriptor becomes readable, waiting
/// up to `timeout`. Returns the bytes read; an empty string means the peer
/// performed an orderly shutdown (EOF). kTimedOut when nothing arrives in
/// time.
StatusOr<std::string> RecvSome(int fd, size_t max_bytes, Duration timeout);

}  // namespace esp::net

#endif  // ESP_NET_SOCKET_H_
