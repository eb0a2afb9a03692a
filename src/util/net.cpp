#include "util/net.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/io.hpp"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace hdtest::util::net {

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    // Sockets are bidirectional; there is no meaningful deferred-write error
    // to harvest here (send_all already reported delivery failures), so the
    // EINTR-normalized close result is intentionally dropped.
    (void)io::close_fd(fd_);
    fd_ = -1;
  }
}

#if defined(_WIN32)

namespace {
[[noreturn]] void unsupported() {
  throw std::runtime_error("net: sockets are not supported on this platform");
}
}  // namespace

Socket listen_tcp(std::uint16_t, int) { unsupported(); }
std::uint16_t local_port(const Socket&) { unsupported(); }
Socket accept_tcp(const Socket&) { unsupported(); }
Socket connect_tcp(const std::string&, std::uint16_t) { unsupported(); }
bool send_all(const Socket&, const void*, std::size_t) noexcept {
  return false;
}
int poll_many(std::span<PollEntry>, int) { unsupported(); }
long recv_some(const Socket&, void*, std::size_t, int) noexcept { return -2; }

#else

namespace {

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("net: ") + what + ": " +
                           std::strerror(errno));
}

sockaddr_in loopback_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("net: bad IPv4 address '" + host + "'");
  }
  return addr;
}

/// poll() over \p count fds, EINTR-safe. Returns poll's result. The one
/// wait loop of this file: poll_many and recv_some both come through here.
///
/// EINTR resumes with the REMAINING time, not the full timeout: restarting
/// the whole wait after every signal lets a steady signal stream postpone
/// the return forever, which is exactly the window where a caller wants to
/// get back to its stop-flag check (a SIGTERM arriving during the
/// coordinator's wait must not be absorbed into a fresh full-length wait).
int poll_fds(pollfd* fds, nfds_t count, int timeout_ms) noexcept {
  if (timeout_ms < 0) {
    for (;;) {
      const int rc = ::poll(fds, count, timeout_ms);
      if (rc >= 0 || errno != EINTR) return rc;
    }
  }
  using Clock = std::chrono::steady_clock;
  using Ms = std::chrono::milliseconds;
  const auto deadline = Clock::now() + Ms(timeout_ms);
  int remaining = timeout_ms;
  for (;;) {
    const int rc = ::poll(fds, count, remaining);
    if (rc >= 0 || errno != EINTR) return rc;
    // Rounded up, so an interrupted wait never times out early.
    const auto left = std::chrono::ceil<Ms>(deadline - Clock::now());
    if (left.count() <= 0) return 0;  // interrupted into the deadline
    remaining = static_cast<int>(left.count());
  }
}

}  // namespace

Socket listen_tcp(std::uint16_t port, int backlog) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) fail("socket");
  Socket socket(fd);
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0) {
    fail("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr = loopback_addr("127.0.0.1", port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    fail("bind");
  }
  if (::listen(fd, backlog) != 0) fail("listen");
  return socket;
}

std::uint16_t local_port(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    fail("getsockname");
  }
  return ntohs(addr.sin_port);
}

Socket accept_tcp(const Socket& listener) {
  for (;;) {
    // No SOCK_NONBLOCK: the accepted socket blocks, unlike the listener.
    const int fd = ::accept4(listener.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    // Nothing pending, or the peer vanished after the readiness wait.
    if (errno == ECONNABORTED || errno == EAGAIN || errno == EWOULDBLOCK) {
      return Socket();
    }
    fail("accept");
  }
}

Socket connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket");
  Socket socket(fd);
  const sockaddr_in addr = loopback_addr(host, port);
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      const int one = 1;
      // Frames are small request/response pairs; Nagle only adds latency.
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return socket;
    }
    if (errno == EINTR) continue;
    return Socket();  // refused/unreachable: caller retries with backoff
  }
}

bool send_all(const Socket& socket, const void* data,
              std::size_t size) noexcept {
  const auto* cursor = static_cast<const unsigned char*>(data);
  std::size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    const ::ssize_t n =
        ::send(socket.fd(), cursor + done, size - done, MSG_NOSIGNAL);
    if (n >= 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

int poll_many(std::span<PollEntry> entries, int timeout_ms) {
  std::vector<pollfd> fds(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    fds[i].fd = entries[i].socket->fd();
    fds[i].events = POLLIN;
  }
  const int ready = poll_fds(fds.data(), fds.size(), timeout_ms);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].readable =
        ready > 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }
  return ready;
}

long recv_some(const Socket& socket, void* buf, std::size_t capacity,
               int timeout_ms) noexcept {
  pollfd pfd{};
  pfd.fd = socket.fd();
  pfd.events = POLLIN;
  const int ready = poll_fds(&pfd, 1, timeout_ms);
  if (ready < 0) return -2;
  if (ready == 0) return -1;
  for (;;) {
    const ::ssize_t n = ::recv(socket.fd(), buf, capacity, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    return -2;
  }
}

#endif

std::uint64_t now_ms() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_ms(std::uint64_t ms) noexcept {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace hdtest::util::net
