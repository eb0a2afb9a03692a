#pragma once
/// \file net.hpp
/// Minimal TCP socket layer for the fleet transport.
///
/// Wraps the handful of POSIX socket calls the coordinator/worker protocol
/// needs — listen, accept, connect, a readiness wait over many sockets,
/// poll-bounded receive, full send — behind RAII and EINTR-safe loops
/// (util/io.hpp discipline). Everything here is transport plumbing:
/// framing, checksums, retries, and protocol state live above it
/// (src/fuzz/fleet/), and nothing here is on the fuzz hot path.
///
/// Wall-clock access (now_ms) lives here too, NOT under src/fuzz/: fleet
/// code takes timestamps as plain integers so the deterministic cores and
/// the simulator never read an ambient clock (the hdtest-determinism
/// contract), while the TCP drivers inject this one.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace hdtest::util::net {

/// Move-only RAII socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Closes now (EINTR-normalized); the destructor otherwise does it.
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Creates a listening IPv4 socket bound to 127.0.0.1:\p port (port 0 picks
/// an ephemeral port; read it back with local_port). SO_REUSEADDR is set so
/// restarted coordinators rebind promptly. The listener is non-blocking:
/// wait for it with poll_many, then accept_tcp.
/// \throws std::runtime_error with errno text on failure.
[[nodiscard]] Socket listen_tcp(std::uint16_t port, int backlog = 16);

/// The locally bound port of a socket (after listen_tcp with port 0).
/// \throws std::runtime_error on failure.
[[nodiscard]] std::uint16_t local_port(const Socket& socket);

/// Accepts one pending connection without waiting, or returns an invalid
/// Socket when none is pending (including a peer that vanished between the
/// readiness wait and this call). EINTR-safe. The accepted socket blocks.
/// \throws std::runtime_error on a hard accept failure.
[[nodiscard]] Socket accept_tcp(const Socket& listener);

/// Connects to \p host:\p port (blocking). Returns an invalid Socket on
/// connection failure (refused/unreachable — the caller owns retry policy).
/// \throws std::runtime_error only on setup errors (bad address, no fds).
[[nodiscard]] Socket connect_tcp(const std::string& host, std::uint16_t port);

/// Sends the whole buffer (EINTR-safe, short-write-safe, SIGPIPE
/// suppressed). Returns false when the peer is gone or the send fails.
[[nodiscard]] bool send_all(const Socket& socket, const void* data,
                            std::size_t size) noexcept;

/// One socket of a poll_many wait and its result.
struct PollEntry {
  const Socket* socket = nullptr;
  /// Set by poll_many: the next recv_some (or, on a listener, accept_tcp)
  /// will not wait. A closed or failed peer counts as readable, so the
  /// read reports the close.
  bool readable = false;
};

/// Waits until at least one entry is readable or \p timeout_ms passes
/// (< 0 waits indefinitely), then sets every entry's `readable`. Returns
/// poll's count of ready entries (> 0), 0 on timeout, or -1 on a hard poll
/// error (errno set). EINTR resumes with the REMAINING time, so a steady signal
/// stream can neither postpone the return past the deadline nor turn the
/// wait into an error.
[[nodiscard]] int poll_many(std::span<PollEntry> entries, int timeout_ms);

/// Receives up to \p capacity bytes, waiting at most \p timeout_ms.
/// Returns the byte count (> 0), 0 when the peer closed cleanly, -1 on
/// timeout, -2 on error. EINTR-safe on both the wait and the read.
/// \p timeout_ms = 0 reads only what has already arrived.
[[nodiscard]] long recv_some(const Socket& socket, void* buf,
                             std::size_t capacity, int timeout_ms) noexcept;

/// Milliseconds from a monotonic clock — the timestamp source the TCP
/// drivers inject into the deterministic fleet cores.
[[nodiscard]] std::uint64_t now_ms() noexcept;

/// Sleeps the calling thread for \p ms milliseconds (EINTR-safe).
void sleep_ms(std::uint64_t ms) noexcept;

}  // namespace hdtest::util::net
