// Tests for the transport-layer utility trio: EINTR-safe fd I/O
// (util::io), the capped deterministic backoff schedule (util::BackoffPolicy),
// and the minimal TCP layer (util::net) the fleet drivers run on.

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/backoff.hpp"
#include "util/io.hpp"
#include "util/net.hpp"

namespace hdtest::util {
namespace {

TEST(IoFull, PipeRoundTripAndShortReadAtEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = "the quick brown fox jumps over the lazy dog";
  ASSERT_EQ(io::write_full(fds[1], payload.data(), payload.size()),
            static_cast<long>(payload.size()));
  ASSERT_EQ(io::close_fd(fds[1]), 0);

  std::vector<char> buf(payload.size() + 16, '\0');
  // Asking for more than was written: read_full must return exactly the
  // bytes present (EOF is a short read, not an error).
  const long got = io::read_full(fds[0], buf.data(), buf.size());
  ASSERT_EQ(got, static_cast<long>(payload.size()));
  EXPECT_EQ(std::string(buf.data(), payload.size()), payload);
  // At EOF a further read_full returns 0.
  EXPECT_EQ(io::read_full(fds[0], buf.data(), buf.size()), 0);
  EXPECT_EQ(io::close_fd(fds[0]), 0);
}

TEST(IoFull, ErrorsReturnMinusOneWithErrno) {
  char byte = 0;
  errno = 0;
  EXPECT_EQ(io::read_full(-1, &byte, 1), -1);
  EXPECT_EQ(errno, EBADF);
  errno = 0;
  EXPECT_EQ(io::write_full(-1, &byte, 1), -1);
  EXPECT_EQ(errno, EBADF);
  errno = 0;
  EXPECT_EQ(io::close_fd(-1), -1);
}

TEST(IoFull, OpenReadonly) {
  const auto path =
      (std::filesystem::temp_directory_path() / "hdtest_io_test.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "abc";
  }
  const int fd = io::open_readonly(path.c_str());
  ASSERT_GE(fd, 0);
  char buf[8];
  EXPECT_EQ(io::read_full(fd, buf, sizeof buf), 3);
  EXPECT_EQ(io::close_fd(fd), 0);
  std::filesystem::remove(path);

  errno = 0;
  EXPECT_EQ(io::open_readonly("/nonexistent/hdtest/nope"), -1);
  EXPECT_EQ(errno, ENOENT);
}

TEST(Backoff, NoJitterDoublesAndCaps) {
  const BackoffPolicy policy{/*initial_ms=*/50, /*max_ms=*/800,
                             /*jitter=*/false};
  EXPECT_EQ(policy.delay_ms(0), 50u);
  EXPECT_EQ(policy.delay_ms(1), 100u);
  EXPECT_EQ(policy.delay_ms(2), 200u);
  EXPECT_EQ(policy.delay_ms(3), 400u);
  EXPECT_EQ(policy.delay_ms(4), 800u);
  EXPECT_EQ(policy.delay_ms(5), 800u);   // capped
  EXPECT_EQ(policy.delay_ms(60), 800u);  // no overflow at large attempts
}

TEST(Backoff, JitterIsBoundedAndPure) {
  const BackoffPolicy policy;  // defaults: 50..5000, jitter on
  for (std::size_t attempt = 0; attempt < 12; ++attempt) {
    for (const std::uint64_t seed : {0ULL, 1ULL, 0xfeedULL}) {
      const std::uint64_t delay = policy.delay_ms(attempt, seed);
      std::uint64_t base = 50;
      for (std::size_t k = 0; k < attempt && base < 5000; ++k) base *= 2;
      if (base > 5000) base = 5000;
      EXPECT_GE(delay, base / 2);
      EXPECT_LE(delay, base);
      // Pure: the same (policy, attempt, seed) replays the same delay —
      // this is what makes simulated retry storms reproducible.
      EXPECT_EQ(policy.delay_ms(attempt, seed), delay);
    }
  }
  // Different seeds decorrelate at least somewhere in the schedule.
  bool differs = false;
  for (std::size_t attempt = 0; attempt < 12 && !differs; ++attempt) {
    differs = policy.delay_ms(attempt, 1) != policy.delay_ms(attempt, 2);
  }
  EXPECT_TRUE(differs);
}

TEST(Net, LoopbackRoundTrip) {
  net::Socket listener = net::listen_tcp(/*port=*/0);
  ASSERT_TRUE(listener.valid());
  const std::uint16_t port = net::local_port(listener);
  ASSERT_NE(port, 0);

  // Nothing pending yet: the listener is not readable, and accept returns
  // an invalid socket at once instead of blocking.
  net::PollEntry pending{&listener};
  EXPECT_EQ(net::poll_many({&pending, 1}, /*timeout_ms=*/10), 0);
  EXPECT_FALSE(pending.readable);
  EXPECT_FALSE(net::accept_tcp(listener).valid());

  net::Socket client = net::connect_tcp("127.0.0.1", port);
  ASSERT_TRUE(client.valid());
  ASSERT_EQ(net::poll_many({&pending, 1}, /*timeout_ms=*/1000), 1);
  EXPECT_TRUE(pending.readable);
  net::Socket server = net::accept_tcp(listener);
  ASSERT_TRUE(server.valid());

  const char message[] = "hdtest fleet";
  ASSERT_TRUE(net::send_all(client, message, sizeof message));
  char buf[64];
  std::size_t total = 0;
  while (total < sizeof message) {
    const long got = net::recv_some(server, buf + total,
                                    sizeof buf - total, /*timeout_ms=*/1000);
    ASSERT_GT(got, 0);
    total += static_cast<std::size_t>(got);
  }
  EXPECT_EQ(total, sizeof message);
  EXPECT_STREQ(buf, message);

  // Quiet peer: timeout is -1, not an error.
  EXPECT_EQ(net::recv_some(server, buf, sizeof buf, /*timeout_ms=*/10), -1);

  // Closed peer: clean 0.
  client.close();
  EXPECT_EQ(net::recv_some(server, buf, sizeof buf, /*timeout_ms=*/1000), 0);
}

/// A connected loopback pair: `client` dialed, `server` accepted.
struct Pair {
  net::Socket client;
  net::Socket server;
};

Pair connect_pair(const net::Socket& listener) {
  Pair pair;
  pair.client = net::connect_tcp("127.0.0.1", net::local_port(listener));
  net::PollEntry entry{&listener};
  if (net::poll_many({&entry, 1}, /*timeout_ms=*/1000) == 1) {
    pair.server = net::accept_tcp(listener);
  }
  return pair;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

TEST(Net, PollManyReportsOnlyReadableSockets) {
  const net::Socket listener = net::listen_tcp(0);
  Pair a = connect_pair(listener);
  Pair b = connect_pair(listener);
  Pair c = connect_pair(listener);
  ASSERT_TRUE(a.server.valid() && b.server.valid() && c.server.valid());

  const char byte = 'x';
  ASSERT_TRUE(net::send_all(b.client, &byte, 1));
  std::vector<net::PollEntry> entries{
      {&listener}, {&a.server}, {&b.server}, {&c.server}};
  ASSERT_EQ(net::poll_many(entries, /*timeout_ms=*/1000), 1);
  EXPECT_FALSE(entries[0].readable);  // nobody else is dialing
  EXPECT_FALSE(entries[1].readable);
  EXPECT_TRUE(entries[2].readable);
  EXPECT_FALSE(entries[3].readable);

  // A readable entry reads without waiting; the wait then goes quiet again.
  char buf[8];
  EXPECT_EQ(net::recv_some(b.server, buf, sizeof buf, /*timeout_ms=*/0), 1);
  EXPECT_EQ(net::poll_many(entries, /*timeout_ms=*/0), 0);
  for (const net::PollEntry& entry : entries) EXPECT_FALSE(entry.readable);
}

TEST(Net, PollManyTimeoutReturnsZeroNoEarlierThanTimeout) {
  const net::Socket listener = net::listen_tcp(0);
  Pair a = connect_pair(listener);
  ASSERT_TRUE(a.server.valid());
  std::vector<net::PollEntry> entries{{&listener}, {&a.server}};
  for (const int timeout_ms : {1, 20, 50}) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(net::poll_many(entries, timeout_ms), 0);
    EXPECT_GE(ms_since(start), timeout_ms);
    for (const net::PollEntry& entry : entries) EXPECT_FALSE(entry.readable);
  }
}

TEST(Net, PollManyReportsPeerCloseAsReadable) {
  const net::Socket listener = net::listen_tcp(0);
  Pair a = connect_pair(listener);
  Pair b = connect_pair(listener);
  ASSERT_TRUE(a.server.valid() && b.server.valid());
  a.client.close();
  std::vector<net::PollEntry> entries{{&a.server}, {&b.server}};
  ASSERT_EQ(net::poll_many(entries, /*timeout_ms=*/1000), 1);
  EXPECT_TRUE(entries[0].readable);
  EXPECT_FALSE(entries[1].readable);
  char buf[8];
  EXPECT_EQ(net::recv_some(a.server, buf, sizeof buf, /*timeout_ms=*/0), 0);
}

std::atomic<int> g_signals_seen{0};

void count_signal(int) { g_signals_seen.fetch_add(1); }

TEST(Net, PollManySignalStreamCannotExtendTheWaitOrFailIt) {
  // No SA_RESTART: every signal interrupts the poll with EINTR, which is
  // exactly the case the remaining-time rule exists for.
  struct sigaction action = {};
  action.sa_handler = count_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, nullptr), 0);
  // The handler stays installed: a signal still in flight when the test
  // ends must not hit SIGUSR1's default action and kill the binary.

  const net::Socket listener = net::listen_tcp(0);
  Pair a = connect_pair(listener);
  ASSERT_TRUE(a.server.valid());
  std::vector<net::PollEntry> entries{{&listener}, {&a.server}};

  const pthread_t waiter = ::pthread_self();
  std::atomic<bool> done{false};
  const int before = g_signals_seen.load();
  std::thread storm([&] {
    while (!done.load()) {
      (void)::pthread_kill(waiter, SIGUSR1);
      net::sleep_ms(1);
    }
  });
  constexpr int kTimeoutMs = 200;
  const auto start = std::chrono::steady_clock::now();
  const int ready = net::poll_many(entries, kTimeoutMs);
  const double waited = ms_since(start);
  done.store(true);
  storm.join();

  EXPECT_EQ(ready, 0);  // a timeout, not an EINTR error
  EXPECT_GE(waited, kTimeoutMs);
  // Restarting the full wait after each of ~200 signals would never end;
  // the bound only has to be far below that and above scheduler noise.
  EXPECT_LT(waited, kTimeoutMs + 1000);
  EXPECT_GT(g_signals_seen.load() - before, 0);
}

TEST(Net, ConnectToClosedPortFailsWithoutThrowing) {
  // Bind-then-close to get a port that is very likely unused.
  std::uint16_t port = 0;
  {
    net::Socket listener = net::listen_tcp(0);
    port = net::local_port(listener);
  }
  EXPECT_FALSE(net::connect_tcp("127.0.0.1", port).valid());
}

TEST(Net, MonotonicClockAdvances) {
  const std::uint64_t before = net::now_ms();
  net::sleep_ms(2);
  EXPECT_GE(net::now_ms(), before);
}

}  // namespace
}  // namespace hdtest::util
