/// \file fleet_campaign.cpp
/// Federated HDTest campaign over TCP: one coordinator, N workers.
///
/// Both roles rebuild the identical model/dataset/fuzzer from the shared
/// flags (everything derives from --seed), so the only thing on the wire
/// is the lease/commit protocol. The coordinator verifies compatibility
/// via the campaign fingerprint in the Hello handshake.
///
///   # terminal 1: coordinator on an ephemeral port, solo cross-check on
///   ./fleet_campaign --role=coordinator --target=20 --verify-solo
///   # terminals 2..N: workers (use the port printed by the coordinator)
///   ./fleet_campaign --role=worker --port=12345 --target=20
///
/// Crash-safe coordination: with --journal-dir the coordinator write-ahead
/// journals every admitted commit and rotates atomic checkpoints in that
/// directory. After a crash (even SIGKILL), relaunch with the same flags
/// plus --resume: recovery replays the journal (truncating any torn tail),
/// re-merges idempotently, and the surviving workers' retries reconnect
/// and finish the campaign — bit-identical to an uninterrupted run.
///
/// Exit codes: 0 success; 1 usage/runtime error (including corrupt or
/// foreign durable state); 2 campaign gave up; 3 --verify-solo mismatch
/// (federated records != workers=1 records).
///
/// SIGINT/SIGTERM drain gracefully: the coordinator stops issuing leases,
/// writes a final checkpoint (when durable), tells workers to shut down,
/// and reports the partial result as gave_up.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>

#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fleet/protocol.hpp"
#include "fuzz/fleet/tcp.hpp"
#include "fuzz/fleet/worker.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/report.hpp"
#include "fuzz/shard/plan.hpp"
#include "fuzz/shard/seed_bank.hpp"
#include "hdc/classifier.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/argparse.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace hdtest;
  util::ArgParser args("fleet_campaign",
                       "Run a federated HDTest campaign over TCP");
  args.add_flag("role", "coordinator", "coordinator|worker");
  args.add_flag("host", "127.0.0.1", "Coordinator address (worker role)");
  args.add_flag("port", "0",
                "TCP port (coordinator: 0 = ephemeral; worker: required)");
  args.add_flag("strategy", "gauss", "Mutation strategy");
  args.add_flag("dim", "2048", "Hypervector dimensionality");
  args.add_flag("train", "40", "Training images per class (synthetic)");
  args.add_flag("test", "20", "Test images per class (synthetic)");
  args.add_flag("images", "60", "Images to fuzz (sweep mode)");
  args.add_flag("target", "0",
                "Stop after this many adversarials (0 = sweep mode)");
  args.add_flag("max-streams", "0",
                "Target mode give-up valve (0 = legacy formula)");
  args.add_flag("iter-times", "30", "Max fuzzing iterations per input");
  args.add_flag("seed", "42", "Experiment seed (must match across roles)");
  args.add_flag("lease-timeout-ms", "10000",
                "Coordinator: lease lifetime before re-issue");
  args.add_flag("journal-dir", "",
                "Coordinator: directory for the crash-safe journal and "
                "checkpoints (empty = no durability)");
  args.add_bool("resume",
                "Coordinator: merge existing campaign state found in "
                "--journal-dir instead of refusing to start");
  args.add_flag("checkpoint-every", "64",
                "Coordinator: rotate a checkpoint after this many admitted "
                "commits (0 = only at start/finish)");
  args.add_flag("fsync-every", "8",
                "Coordinator: journal fsync batching (1 = every record)");
  args.add_bool("verify-solo",
                "Coordinator: after the fleet finishes, run the same "
                "campaign with workers=1 in-process and fail unless the "
                "records are bit-identical");
  args.add_flag("metrics-out", "",
                "Coordinator: rewrite this file with the Prometheus "
                "exposition of all campaign metrics (empty = off)");
  args.add_flag("metrics-interval", "1000",
                "Coordinator: milliseconds between exposition rewrites and "
                "fleet health log lines");
  args.add_flag("trace-out", "",
                "Coordinator: write a Chrome trace_event JSON timeline of "
                "checkpoint/fsync/replay spans here (empty = off)");
  args.add_bool("metrics",
                "Enable campaign telemetry without an exposition file "
                "(workers need this to emit heartbeats)");

  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  if (args.get_bool("metrics")) obs::set_enabled(true);

  try {
    // Every flag is read and converted before any data is generated or a
    // model trained, so a malformed value fails in milliseconds.
    const auto role = args.get("role");
    if (role != "coordinator" && role != "worker") {
      std::cerr << "error: --role must be coordinator or worker\n";
      return 1;
    }
    const auto seed = args.get_u64("seed");
    const auto train_per_class = args.get_u64("train");
    const auto test_per_class = args.get_u64("test");
    hdc::ModelConfig model_config;
    model_config.dim = args.get_u64("dim");
    model_config.seed = seed;

    const auto strategy = fuzz::make_strategy(args.get("strategy"));
    fuzz::FuzzConfig fuzz_config;
    fuzz_config.iter_times = args.get_u64("iter-times");
    fuzz_config.budget = fuzz::default_budget_for_strategy(strategy->name());

    fuzz::CampaignConfig config;
    config.fuzz = fuzz_config;
    config.max_images = args.get_u64("images");
    config.target_adversarials = args.get_u64("target");
    config.max_streams = args.get_u64("max-streams");
    config.seed = seed;
    config.validate();
    const std::size_t target = config.target_adversarials;

    fuzz::fleet::TcpWorker::Options worker_options;
    worker_options.host = args.get("host");
    worker_options.port = static_cast<std::uint16_t>(args.get_u64("port"));
    worker_options.backoff_seed = seed;
    if (role == "worker" && worker_options.port == 0) {
      std::cerr << "error: worker role requires --port\n";
      return 1;
    }

    fuzz::fleet::TcpCoordinator::Options options;
    options.port = worker_options.port;
    options.lease_timeout_ms = args.get_u64("lease-timeout-ms");
    options.strategy_name = strategy->name();
    options.journal_dir = args.get("journal-dir");
    options.resume = args.get_bool("resume");
    options.durable.checkpoint_every_commits = args.get_u64("checkpoint-every");
    options.durable.fsync_every_commits = args.get_u64("fsync-every");
    options.metrics_out = args.get("metrics-out");
    options.metrics_interval_ms = args.get_u64("metrics-interval");
    options.trace_out = args.get("trace-out");
    const bool verify_solo = args.get_bool("verify-solo");

    // Shared, seed-derived campaign state (identical across roles).
    const auto pair =
        data::make_digit_train_test(train_per_class, test_per_class, seed);
    hdc::HdcClassifier model(model_config, pair.train.images.front().width(),
                             pair.train.images.front().height(),
                             static_cast<std::size_t>(pair.train.num_classes));
    model.fit(pair.train);
    const fuzz::Fuzzer fuzzer(model, *strategy, fuzz_config);
    const auto planner = fuzz::shard::plan_campaign(config, pair.test.size());

    if (role == "worker") {
      fuzz::shard::SeedBank bank(fuzzer, pair.test);
      fuzz::fleet::FuzzSliceExecutor executor(planner, fuzzer, pair.test,
                                              &bank);
      fuzz::fleet::TcpWorker worker(
          fuzz::fleet::campaign_fingerprint(planner, target), executor,
          worker_options);
      const bool clean = worker.run(&g_stop);
      std::printf("worker: %zu slices executed, %s\n",
                  worker.slices_executed(),
                  clean ? "clean shutdown" : "stopped without shutdown");
      return clean ? 0 : 1;
    }

    if (!options.metrics_out.empty()) obs::set_enabled(true);
    if (!options.trace_out.empty()) {
      obs::set_enabled(true);
      obs::set_trace_enabled(true);
    }
    fuzz::fleet::TcpCoordinator coordinator(planner, target, options);
    if (const auto* durable = coordinator.durable_state();
        durable != nullptr && durable->resumed()) {
      std::printf(
          "coordinator: resumed campaign from %s (checkpoint seq %llu, "
          "%zu journaled commits replayed)\n",
          options.journal_dir.c_str(),
          static_cast<unsigned long long>(
              durable->recovered().checkpoint.sequence),
          durable->recovered().journal.commits.size());
    }
    std::printf("coordinator: listening on 127.0.0.1:%u (fingerprint %016llx)\n",
                coordinator.port(),
                static_cast<unsigned long long>(
                    fuzz::fleet::campaign_fingerprint(planner, target)));
    std::fflush(stdout);

    auto fleet = coordinator.run(&g_stop);
    const auto& stats = coordinator.stats();
    std::printf(
        "fleet: %zu records, %zu commits (%zu duplicate, %zu rejected), "
        "%zu corrupt frames, %zu leases re-issued\n",
        fleet.records.size(), stats.commits_accepted,
        stats.duplicate_commits, stats.commits_rejected,
        stats.corrupt_frames, stats.leases_reissued);
    std::printf("\n%s\n", fuzz::render_strategy_table({fleet}).c_str());

    if (fleet.gave_up) {
      std::cerr << "error: campaign gave up (" << fleet.successes() << "/"
                << target << " adversarials)\n";
      return 2;
    }

    if (verify_solo) {
      fuzz::CampaignConfig solo = config;
      solo.workers = 1;
      const auto reference = fuzz::run_campaign(fuzzer, pair.test, solo);
      if (!fuzz::identical_records(fleet, reference)) {
        std::cerr << "error: federated records differ from workers=1 run\n";
        return 3;
      }
      std::printf("verify-solo: %zu records bit-identical to workers=1\n",
                  reference.records.size());
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
