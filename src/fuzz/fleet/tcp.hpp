#pragma once
/// \file tcp.hpp
/// Real-socket drivers for the fleet cores (loopback/LAN federation).
///
/// These are thin event pumps: all protocol decisions live in
/// CoordinatorCore / WorkerCore, which the drivers feed with frames
/// decoded by FrameReader and timestamps from util::net::now_ms. The
/// drivers own exactly the things the deterministic cores must not:
/// sockets, wall time, sleeping, and signal-flag polling.
///
/// The coordinator is one thread that waits once per pass, on one poll set
/// holding the listener and every connection (util::net::poll_many), for
/// at most a 10 ms tick. It then accepts if the listener is readable and
/// reads only the readable connections, none of which can block: a frame
/// that has arrived is handled at once, however many other connections
/// are quiet. The tick bounds how late lease expiry, the metrics cadence,
/// the post-decision linger and the stop flag are noticed.
///
/// Fault handling at this layer:
///   - EINTR-safe I/O throughout (util::net);
///   - a malformed frame poisons the connection's FrameReader: the
///     coordinator counts it, revokes the sender's leases, and drops the
///     connection (stream framing is unrecoverable after corruption);
///   - workers reconnect with capped exponential backoff and resend their
///     pending request when a reply times out;
///   - a stop flag (SIGTERM) drains gracefully: the coordinator abandons
///     the ledger at its replay frontier, tells every worker to shut
///     down, and returns a partial result marked gave_up.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "fuzz/campaign.hpp"
#include "fuzz/fleet/coordinator.hpp"
#include "fuzz/fleet/durable/durable_coordinator.hpp"
#include "fuzz/fleet/worker.hpp"
#include "fuzz/fleet/wire.hpp"
#include "util/backoff.hpp"
#include "util/net.hpp"

namespace hdtest::fuzz::fleet {

/// Serves one campaign over TCP from a single thread: one readiness wait
/// per pass over the listener and all connections (see the file comment).
class TcpCoordinator {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = pick an ephemeral port (see port())
    std::uint64_t lease_timeout_ms = 10'000;
    /// After the campaign decides, linger this long so workers can fetch
    /// their Shutdown before the listener goes away.
    std::uint64_t linger_ms = 3'000;
    std::string strategy_name;
    /// Directory for the crash-safe journal/checkpoint pair (created if
    /// absent). Empty = serve without durability, exactly as before.
    std::string journal_dir;
    /// Permit merging existing durable state found in journal_dir. When
    /// false and the directory already holds a campaign, the constructor
    /// throws instead of silently resuming (an operator must opt in).
    bool resume = false;
    /// Journal fsync batching and checkpoint rotation cadence.
    durable::DurableOptions durable;
    /// When non-empty, the run loop periodically (and once at exit)
    /// rewrites this file with the Prometheus exposition of the global
    /// metrics registry, and logs a fleet health table at info level.
    std::string metrics_out;
    /// Cadence of the periodic exposition rewrite / health table.
    std::uint64_t metrics_interval_ms = 1'000;
    /// When non-empty, drains the global trace ring into this file
    /// (Chrome trace_event JSON) after the campaign decides.
    std::string trace_out;
  };

  /// Binds the listener immediately (so port() is valid before run()).
  /// When Options::journal_dir is set, also recovers any durable state
  /// there (crash-safe resume) before the listener accepts anyone.
  /// \throws std::runtime_error when the socket cannot be bound.
  /// \throws durable::DurabilityError when journal_dir holds corrupt or
  ///         foreign state, or existing state without Options::resume.
  TcpCoordinator(const shard::ShardPlanner& planner, std::size_t target,
                 Options options);

  /// The bound port (useful with Options::port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// The durable layer, or nullptr when journal_dir was empty.
  [[nodiscard]] const durable::DurableCoordinator* durable_state()
      const noexcept {
    return durable_.get();
  }

  /// Serves until the stopping rule decides, then lingers briefly to hand
  /// out Shutdowns. When \p stop becomes true first, drains gracefully and
  /// returns the partial result (gave_up = true). total_seconds is
  /// stamped with the serving wall time.
  [[nodiscard]] CampaignResult run(const std::atomic<bool>* stop = nullptr);

  [[nodiscard]] const CoordinatorStats& stats() const noexcept {
    return core_.stats();
  }

 private:
  struct Conn {
    util::net::Socket socket;
    FrameReader reader;
  };

  void pump_connection(ConnId id, Conn& conn);
  void flush_outbox();
  void close_conn(ConnId id);
  void publish_metrics() const;

  /// Declared before core_: the hook pointer handed to core_'s Options
  /// must outlive the core, and recovery runs before the core exists.
  std::unique_ptr<durable::PosixStorage> storage_;
  std::unique_ptr<durable::DurableCoordinator> durable_;
  CoordinatorCore core_;
  Options options_;
  util::net::Socket listener_;
  std::uint16_t port_ = 0;
  std::map<ConnId, Conn> conns_;
  ConnId next_conn_ = 1;
};

/// Connects to a coordinator and executes leases until told to shut down.
class TcpWorker {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// How long to wait for a reply before resending the pending request.
    std::uint64_t response_timeout_ms = 2'000;
    /// Resends on one connection before tearing it down and reconnecting.
    std::size_t max_resends = 4;
    /// Reconnect attempts before giving up entirely.
    std::size_t max_reconnects = 16;
    /// Jitter seed for the reconnect backoff (decorrelates a fleet).
    std::uint64_t backoff_seed = 0;
    /// Heartbeat cadence. Emission additionally requires obs::enabled()
    /// and a completed handshake; 0 disables heartbeats outright.
    std::uint64_t heartbeat_interval_ms = 500;
  };

  TcpWorker(std::uint64_t fingerprint, SliceExecutor& executor,
            Options options) noexcept
      : core_(fingerprint, executor), options_(std::move(options)) {}

  /// Runs until the coordinator shuts us down, the reconnect budget is
  /// exhausted, or \p stop becomes true. Returns true only for a clean
  /// coordinator-initiated shutdown.
  [[nodiscard]] bool run(const std::atomic<bool>* stop = nullptr);

  [[nodiscard]] std::size_t slices_executed() const noexcept {
    return core_.slices_executed();
  }

 private:
  WorkerCore core_;
  Options options_;
};

}  // namespace hdtest::fuzz::fleet
