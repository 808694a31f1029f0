#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace esp::net {

namespace {

/// poll() one descriptor for `events` with a deadline; OK when ready,
/// kTimedOut when the deadline passes, errno-mapped otherwise. EINTR is
/// retried with the remaining budget (coarsely: the full timeout again —
/// signals are rare enough that the slack does not matter here).
Status PollFor(int fd, short events, Duration timeout, const char* what) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  const int timeout_ms =
      timeout.micros() < 0
          ? -1
          : static_cast<int>((timeout.micros() + 999) / 1000);
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::TimedOut(std::string(what) + " timed out after " +
                              timeout.ToString());
    }
    if (errno == EINTR) continue;
    return Status::FromErrno(std::string(what) + ": poll", errno);
  }
}

StatusOr<struct sockaddr_in> MakeAddr(const std::string& address,
                                      uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 dotted-quad address: '" +
                                   address + "'");
  }
  return addr;
}

}  // namespace

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::FromErrno("fcntl(F_GETFL)", errno);
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::FromErrno("fcntl(F_SETFL, O_NONBLOCK)", errno);
  }
  return Status::OK();
}

Status ConfigureStream(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Status::FromErrno("setsockopt(TCP_NODELAY)", errno);
  }
  return Status::OK();
}

StatusOr<ListenSocket> TcpListen(const std::string& address, uint16_t port,
                                 int backlog) {
  ESP_ASSIGN_OR_RETURN(struct sockaddr_in addr, MakeAddr(address, port));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Status::FromErrno("socket", errno);
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return Status::FromErrno("setsockopt(SO_REUSEADDR)", errno);
  }
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::FromErrno("bind " + address + ":" + std::to_string(port),
                             errno);
  }
  if (::listen(fd.get(), backlog) < 0) {
    return Status::FromErrno("listen", errno);
  }
  ESP_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) < 0) {
    return Status::FromErrno("getsockname", errno);
  }
  ListenSocket result;
  result.fd = std::move(fd);
  result.port = ntohs(bound.sin_port);
  return result;
}

StatusOr<UniqueFd> TcpConnect(const std::string& host, uint16_t port,
                              Duration timeout) {
  ESP_ASSIGN_OR_RETURN(struct sockaddr_in addr, MakeAddr(host, port));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Status::FromErrno("socket", errno);
  // Connect non-blocking so the timeout is enforceable, then restore
  // blocking mode: callers layer poll()-based deadlines via SendAll/RecvSome.
  ESP_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  if (::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      if (errno == ECONNREFUSED) {
        return Status::ConnectionReset("connect " + host + ":" +
                                       std::to_string(port) +
                                       ": connection refused");
      }
      return Status::FromErrno(
          "connect " + host + ":" + std::to_string(port), errno);
    }
    ESP_RETURN_IF_ERROR(PollFor(fd.get(), POLLOUT, timeout, "connect"));
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len) < 0) {
      return Status::FromErrno("getsockopt(SO_ERROR)", errno);
    }
    if (err != 0) {
      if (err == ECONNREFUSED) {
        return Status::ConnectionReset("connect " + host + ":" +
                                       std::to_string(port) +
                                       ": connection refused");
      }
      return Status::FromErrno(
          "connect " + host + ":" + std::to_string(port), err);
    }
  }
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0) return Status::FromErrno("fcntl(F_GETFL)", errno);
  if (::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) < 0) {
    return Status::FromErrno("fcntl(F_SETFL)", errno);
  }
  ESP_RETURN_IF_ERROR(ConfigureStream(fd.get()));
  return fd;
}

StatusOr<std::optional<UniqueFd>> TcpAccept(int listen_fd, bool nonblocking) {
  UniqueFd fd(::accept4(listen_fd, nullptr, nullptr,
                        SOCK_CLOEXEC | (nonblocking ? SOCK_NONBLOCK : 0)));
  if (!fd.valid()) return std::optional<UniqueFd>();
  ESP_RETURN_IF_ERROR(ConfigureStream(fd.get()));
  return std::optional<UniqueFd>(std::move(fd));
}

Status SendAll(int fd, std::string_view data, Duration timeout) {
  while (!data.empty()) {
    const ssize_t n =
        ::send(fd, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      data.remove_prefix(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ESP_RETURN_IF_ERROR(PollFor(fd, POLLOUT, timeout, "send"));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::FromErrno("send", errno);
  }
  return Status::OK();
}

StatusOr<std::string> RecvSome(int fd, size_t max_bytes, Duration timeout) {
  ESP_RETURN_IF_ERROR(PollFor(fd, POLLIN, timeout, "recv"));
  std::string buf(max_bytes, '\0');
  for (;;) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n >= 0) {
      buf.resize(static_cast<size_t>(n));
      return buf;
    }
    if (errno == EINTR) continue;
    return Status::FromErrno("recv", errno);
  }
}

}  // namespace esp::net
