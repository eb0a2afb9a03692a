// Loopback-TCP federation: real sockets, real threads, one worker lost
// mid-campaign while it holds a lease. The merged result must still be
// bit-identical to run_campaign(workers=1). Also pins the fatal-fingerprint
// path over a real connection, and that idle connections cannot slow the
// coordinator's answers to a working one.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fleet/protocol.hpp"
#include "fuzz/fleet/tcp.hpp"
#include "fuzz/fleet/wire.hpp"
#include "fuzz/fleet/worker.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/shard/plan.hpp"
#include "fuzz/shard/seed_bank.hpp"
#include "hdc/classifier.hpp"
#include "obs/registry.hpp"
#include "util/net.hpp"

namespace hdtest::fuzz::fleet {
namespace {

/// Small shared campaign fixture: data, fitted model, fuzzer, planner.
class LoopbackCampaign {
 public:
  LoopbackCampaign()
      : pair_(data::make_digit_train_test(10, 2, 31)),
        model_(make_model_config(), 28, 28, 10) {
    model_.fit(pair_.train);
    fuzz_config_.iter_times = 3;
    fuzz_config_.seeds_per_iteration = 4;
    fuzzer_.emplace(model_, strategy_, fuzz_config_);
    config_.fuzz = fuzz_config_;
    config_.target_adversarials = 2;
    config_.max_streams = 9;
    config_.shard_block = 3;
    config_.seed = 7;
    planner_.emplace(shard::plan_campaign(config_, pair_.test.size()));
  }

  [[nodiscard]] const data::Dataset& test() const { return pair_.test; }
  [[nodiscard]] const Fuzzer& fuzzer() const { return *fuzzer_; }
  [[nodiscard]] const CampaignConfig& config() const { return config_; }
  [[nodiscard]] const shard::ShardPlanner& planner() const {
    return *planner_;
  }
  [[nodiscard]] std::uint64_t fingerprint() const {
    return campaign_fingerprint(*planner_, config_.target_adversarials);
  }

 private:
  static hdc::ModelConfig make_model_config() {
    hdc::ModelConfig config;
    config.dim = 256;
    config.seed = 5;
    return config;
  }

  data::TrainTestPair pair_;
  hdc::HdcClassifier model_;
  GaussNoiseMutation strategy_;
  FuzzConfig fuzz_config_;
  std::optional<Fuzzer> fuzzer_;
  CampaignConfig config_;
  std::optional<shard::ShardPlanner> planner_;
};

/// Reads frames from \p socket until one of \p kind arrives; nullopt when
/// the connection closes or stays quiet for 5 s first.
std::optional<Frame> await_frame(const util::net::Socket& socket,
                                 FrameReader& reader, MessageKind kind) {
  for (;;) {
    Frame frame;
    while (reader.next(frame) == FrameStatus::kOk) {
      if (frame.kind == static_cast<std::uint16_t>(kind)) return frame;
    }
    std::uint8_t buf[4096];
    const long got =
        util::net::recv_some(socket, buf, sizeof buf, /*timeout_ms=*/5000);
    if (got <= 0) return std::nullopt;
    reader.feed(std::span<const std::uint8_t>(
        buf, static_cast<std::size_t>(got)));
  }
}

bool send_frame(const util::net::Socket& socket, const Frame& frame) {
  const auto bytes = encode_frame(frame.kind, frame.body);
  return util::net::send_all(socket, bytes.data(), bytes.size());
}

/// The first half of a worker, scripted on a raw socket: Hello, then a
/// LeaseRequest, then it holds the granted lease without ever committing.
/// Closing the returned socket is the worker dying with the lease. Returns
/// an invalid socket when any step fails.
util::net::Socket take_lease(std::uint16_t port, std::uint64_t fingerprint,
                             LeaseGrant& grant) {
  util::net::Socket socket = util::net::connect_tcp("127.0.0.1", port);
  FrameReader reader;
  if (!socket.valid()) return socket;
  if (!send_frame(socket, make_hello(Hello{fingerprint}))) return {};
  if (!await_frame(socket, reader, MessageKind::kHelloAck)) return {};
  if (!send_frame(socket, make_lease_request())) return {};
  const auto granted = await_frame(socket, reader, MessageKind::kLeaseGrant);
  if (!granted) return {};
  grant = decode_lease_grant(granted->body);
  return socket;
}

/// Forwards to the real executor and raises a flag once a slice is done.
class FlaggingExecutor final : public SliceExecutor {
 public:
  FlaggingExecutor(SliceExecutor& inner, std::atomic<bool>& executed) noexcept
      : inner_(&inner), executed_(&executed) {}

  std::vector<CampaignRecord> execute(
      const shard::StreamSlice& slice) override {
    std::vector<CampaignRecord> records = inner_->execute(slice);
    executed_->store(true);
    return records;
  }

 private:
  SliceExecutor* inner_;
  std::atomic<bool>* executed_;
};

TEST(FleetTcp, LoopbackFleetSurvivesWorkerLossAndMatchesSolo) {
  LoopbackCampaign campaign;
  CampaignConfig solo = campaign.config();
  solo.workers = 1;
  const auto expected = run_campaign(campaign.fuzzer(), campaign.test(), solo);

  TcpCoordinator::Options coordinator_options;
  // Far longer than the test: the lost lease must come back because its
  // holder's connection dropped, not because a timer ran out.
  coordinator_options.lease_timeout_ms = 60'000;
  coordinator_options.linger_ms = 500;
  TcpCoordinator coordinator(campaign.planner(),
                             campaign.config().target_adversarials,
                             coordinator_options);
  const std::uint16_t port = coordinator.port();
  ASSERT_NE(port, 0);

  std::atomic<bool> coordinator_stop{false};
  std::optional<CampaignResult> merged;
  std::thread serve([&] { merged = coordinator.run(&coordinator_stop); });

  // The doomed worker asks first, so it holds the first block. The ledger
  // merges in stream order, so no decision can be reached without that
  // block: the campaign needs the slice the worker is about to lose.
  LeaseGrant lost{};
  util::net::Socket doomed = take_lease(port, campaign.fingerprint(), lost);
  EXPECT_TRUE(doomed.valid());
  EXPECT_EQ(lost.first_stream, 0u);

  // Worker A runs to clean shutdown. Once it has executed a slice of its
  // own, the doomed worker dies holding its lease mid-campaign.
  std::atomic<bool> executed{false};
  bool clean_a = false;
  std::thread worker_a([&] {
    shard::SeedBank bank(campaign.fuzzer(), campaign.test());
    FuzzSliceExecutor fuzz(campaign.planner(), campaign.fuzzer(),
                           campaign.test(), &bank);
    FlaggingExecutor executor(fuzz, executed);
    TcpWorker::Options options;
    options.port = port;
    options.response_timeout_ms = 200;
    TcpWorker worker(campaign.fingerprint(), executor, options);
    clean_a = worker.run();
  });
  const std::uint64_t give_up_at = util::net::now_ms() + 30'000;
  while (!executed.load() && util::net::now_ms() < give_up_at) {
    util::net::sleep_ms(1);
  }
  EXPECT_TRUE(executed.load());
  doomed.close();

  worker_a.join();
  EXPECT_TRUE(clean_a);
  // Backstop: if the fleet somehow wedged, drain instead of hanging the
  // suite. On the healthy path the campaign already finished and this flag
  // is a no-op.
  coordinator_stop.store(true);
  serve.join();

  ASSERT_TRUE(merged.has_value());
  EXPECT_FALSE(merged->gave_up);
  EXPECT_TRUE(identical_records(*merged, expected));
  EXPECT_GT(coordinator.stats().commits_accepted, 0u);
  EXPECT_GE(coordinator.stats().leases_reissued, 1u);
}

/// Serves the loopback campaign to one TcpWorker while \p idle_conns raw
/// connections sit open without sending a byte. Returns the worker's
/// run() wall time in ms; the merged result lands in \p merged.
double timed_run_beside_idle_connections(const LoopbackCampaign& campaign,
                                         std::size_t idle_conns,
                                         CampaignResult& merged) {
  TcpCoordinator::Options coordinator_options;
  coordinator_options.lease_timeout_ms = 60'000;
  coordinator_options.linger_ms = 200;
  TcpCoordinator coordinator(campaign.planner(),
                             campaign.config().target_adversarials,
                             coordinator_options);
  std::atomic<bool> coordinator_stop{false};
  std::thread serve([&] { merged = coordinator.run(&coordinator_stop); });

  // Every idle connection is accepted before the clock starts, so both
  // runs time the same protocol exchange.
  obs::Counter& accepts =
      obs::Registry::global().counter("fleet_net_accepts_total");
  const std::uint64_t accepted_before = accepts.value();
  std::vector<util::net::Socket> idle;
  for (std::size_t i = 0; i < idle_conns; ++i) {
    idle.push_back(util::net::connect_tcp("127.0.0.1", coordinator.port()));
  }
  const std::uint64_t give_up_at = util::net::now_ms() + 30'000;
  while (accepts.value() < accepted_before + idle_conns &&
         util::net::now_ms() < give_up_at) {
    util::net::sleep_ms(1);
  }

  double run_ms = 0.0;
  bool clean = false;
  std::thread worker([&] {
    shard::SeedBank bank(campaign.fuzzer(), campaign.test());
    FuzzSliceExecutor executor(campaign.planner(), campaign.fuzzer(),
                               campaign.test(), &bank);
    TcpWorker::Options options;
    options.port = coordinator.port();
    TcpWorker tcp_worker(campaign.fingerprint(), executor, options);
    const auto start = std::chrono::steady_clock::now();
    clean = tcp_worker.run();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    run_ms = std::chrono::duration<double, std::milli>(elapsed).count();
  });
  worker.join();
  idle.clear();
  coordinator_stop.store(true);
  serve.join();
  EXPECT_TRUE(clean);
  EXPECT_FALSE(merged.gave_up);
  return run_ms;
}

TEST(FleetTcp, IdleConnectionsDoNotDelayCommits) {
  LoopbackCampaign campaign;
  CampaignResult clean_merged;
  CampaignResult idle_merged;
  const double clean_ms =
      timed_run_beside_idle_connections(campaign, 0, clean_merged);
  const double idle_ms =
      timed_run_beside_idle_connections(campaign, 16, idle_merged);
  // A coordinator that waited on each connection in turn would add the
  // per-connection wait to every request: 16 connections x 10 ms per
  // round trip. One wait over all of them adds nothing measurable.
  EXPECT_LT(idle_ms, 2.0 * clean_ms + 50.0)
      << "clean " << clean_ms << " ms, idle " << idle_ms << " ms";
  EXPECT_TRUE(identical_records(idle_merged, clean_merged));
}

TEST(FleetTcp, WrongFingerprintWorkerIsTurnedAway) {
  LoopbackCampaign campaign;

  TcpCoordinator::Options coordinator_options;
  coordinator_options.lease_timeout_ms = 300;
  coordinator_options.linger_ms = 200;
  TcpCoordinator coordinator(campaign.planner(),
                             campaign.config().target_adversarials,
                             coordinator_options);
  const std::uint16_t port = coordinator.port();

  std::atomic<bool> coordinator_stop{false};
  std::optional<CampaignResult> merged;
  std::thread serve([&] { merged = coordinator.run(&coordinator_stop); });

  // A worker built for a DIFFERENT campaign must be rejected outright...
  bool imposter_clean = true;
  std::thread imposter([&] {
    shard::SeedBank bank(campaign.fuzzer(), campaign.test());
    FuzzSliceExecutor executor(campaign.planner(), campaign.fuzzer(),
                               campaign.test(), &bank);
    TcpWorker::Options options;
    options.port = port;
    options.response_timeout_ms = 200;
    options.max_reconnects = 2;
    TcpWorker worker(campaign.fingerprint() ^ 1, executor, options);
    imposter_clean = worker.run();
  });
  imposter.join();
  EXPECT_FALSE(imposter_clean);

  // ...while the campaign itself stays serviceable for a correct worker.
  bool clean = false;
  std::thread worker([&] {
    shard::SeedBank bank(campaign.fuzzer(), campaign.test());
    FuzzSliceExecutor executor(campaign.planner(), campaign.fuzzer(),
                               campaign.test(), &bank);
    TcpWorker::Options options;
    options.port = port;
    options.response_timeout_ms = 200;
    TcpWorker tcp_worker(campaign.fingerprint(), executor, options);
    clean = tcp_worker.run();
  });
  worker.join();
  EXPECT_TRUE(clean);
  coordinator_stop.store(true);
  serve.join();

  ASSERT_TRUE(merged.has_value());
  EXPECT_GE(coordinator.stats().workers_rejected, 1u);
  EXPECT_FALSE(merged->gave_up);
}

}  // namespace
}  // namespace hdtest::fuzz::fleet
