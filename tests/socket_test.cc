// The socket rule (net/socket.h): both ends of every TCP stream the program
// opens or accepts carry the options ConfigureStream sets.

#include "net/socket.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

namespace esp::net {
namespace {

bool NoDelay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value != 0;
}

bool NonBlocking(int fd) { return (::fcntl(fd, F_GETFL, 0) & O_NONBLOCK) != 0; }

/// Waits for the listener to hold a pending connection, then accepts it.
UniqueFd AcceptPending(int listen_fd, bool nonblocking) {
  struct pollfd pfd = {listen_fd, POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 5000), 1);
  StatusOr<std::optional<UniqueFd>> accepted =
      TcpAccept(listen_fd, nonblocking);
  EXPECT_TRUE(accepted.ok()) << accepted.status();
  if (!accepted.ok() || !accepted->has_value()) return UniqueFd();
  return std::move(**accepted);
}

TEST(SocketTest, BothEndsOfAStreamHaveNagleOff) {
  StatusOr<ListenSocket> listener = TcpListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  // The ingest server accepts non-blocking, the cluster worker blocking.
  for (const bool nonblocking : {true, false}) {
    StatusOr<UniqueFd> dialed =
        TcpConnect("127.0.0.1", listener->port, Duration::Seconds(5));
    ASSERT_TRUE(dialed.ok()) << dialed.status();
    const UniqueFd accepted = AcceptPending(listener->fd.get(), nonblocking);
    ASSERT_TRUE(accepted.valid());

    EXPECT_TRUE(NoDelay(dialed->get()));
    EXPECT_TRUE(NoDelay(accepted.get()));
    EXPECT_FALSE(NonBlocking(dialed->get()));
    EXPECT_EQ(NonBlocking(accepted.get()), nonblocking);
    EXPECT_NE(::fcntl(accepted.get(), F_GETFD, 0) & FD_CLOEXEC, 0);
  }
}

TEST(SocketTest, AcceptWithNothingPendingTakesNothing) {
  StatusOr<ListenSocket> listener = TcpListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  StatusOr<std::optional<UniqueFd>> accepted =
      TcpAccept(listener->fd.get(), /*nonblocking=*/true);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_FALSE(accepted->has_value());
}

TEST(SocketTest, ConfiguringANonTcpDescriptorIsATypedError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const UniqueFd read_end(fds[0]);
  const UniqueFd write_end(fds[1]);
  const Status configured = ConfigureStream(read_end.get());
  ASSERT_FALSE(configured.ok());
  EXPECT_NE(configured.message().find("TCP_NODELAY"), std::string::npos)
      << configured;
}

}  // namespace
}  // namespace esp::net
