// larp_cli: command-line driver over the library's public API, for running
// the LARPredictor machinery on externally collected traces (CSV).
//
//   larp_cli characterize <csv> <column>      trace fingerprint
//   larp_cli assess       <csv> <column>      §8 applicability report
//   larp_cli evaluate     <csv> <column>      cross-validated strategy table
//   larp_cli forecast     <csv> <column>      stream one-step forecasts (CSV)
//   larp_cli walk         <csv> <column>      rolling-origin evaluation
//   larp_cli export       <vm>  <out.csv>     write a catalog VM's trace suite
//   larp_cli serve-sim                        multi-series PredictionEngine sim
//   larp_cli serve                            epoll TCP front-end over an engine
//   larp_cli replicate                        leader: serve + stream WAL to followers
//   larp_cli follow                           follower: bootstrap + serve reads
//   larp_cli loadgen                          drive a serve instance over TCP
//   larp_cli snapshot     <data-dir>          restore + write a fresh snapshot
//   larp_cli restore      <data-dir>          restore an engine, print stats
//   larp_cli inspect-snapshot <data-dir>      validate snapshots / list WAL
//
// Common options:
//   --window N       prediction window m            (default 5)
//   --k N            k-NN neighbours                 (default 3)
//   --folds N        cross-validation repetitions    (default 10)
//   --pool NAME      paper | extended                (default paper)
//   --seed N         RNG seed                        (default 2007)
//   --train-frac F   forecast: training prefix share (default 0.5)
//   --series N       serve-sim: concurrent series    (default 256)
//   --steps N        serve-sim: post-warm-up steps   (default 96)
//   --threads N      serve-sim/serve/replicate/follow: engine parallelism
//                    (0 = all cores; 1 = no worker, the caller runs shards)
//   --shards N       serve-sim: engine shards        (default 16)
//   --data-dir P     serve-sim: durability directory (snapshots + WAL)
//   --snapshot-every N  serve-sim: snapshot cadence in steps (0 = end only)
//   --durability M   serve-sim: sync | async — inline fsync policy vs the
//                    background WalSyncer thread (default sync)
//   --host H         serve/loadgen: bind/connect address (default 127.0.0.1)
//   --port N         serve/loadgen: TCP port (serve: 0 = ephemeral)
//   --net-threads N  serve: epoll event-loop threads   (default 1)
//   --max-seconds N  serve: stop after N seconds (0 = until SIGINT/SIGTERM)
//   --threads N      loadgen: worker threads            (default 1)
//   --connections N  loadgen: pipelined connections per worker thread
//                    (default 1; the thread keeps all of them in flight)
//   --batch N        loadgen: series per request frame  (default 64)
//   --repl-port N    replicate: replication listener port (0 = ephemeral)
//   --leader-host H  follow: leader's replication address
//   --leader-port N  follow: leader's replication port
//   --max-staleness-ms N  follow: reject reads older than this (0 = no bound)
//   --read-from-follower N  loadgen: send predicts to this port instead
//                    (observes still go to --port; kStale counted per reply)
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <chrono>

#include "core/applicability.hpp"
#include "core/experiment.hpp"
#include "core/lar_predictor.hpp"
#include "core/report.hpp"
#include "core/rolling.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "replication/replica.hpp"
#include "replication/server.hpp"
#include "serve/prediction_engine.hpp"
#include "tracegen/catalog.hpp"
#include "tracegen/characterize.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace larp;

struct Options {
  std::string command;
  std::vector<std::string> positional;
  std::size_t window = 5;
  std::size_t k = 3;
  std::size_t folds = 10;
  std::string pool = "paper";
  std::uint64_t seed = 2007;
  double train_fraction = 0.5;
  std::size_t series = 256;
  std::size_t steps = 96;
  std::size_t threads = 0;
  std::size_t shards = 16;
  std::string data_dir;
  std::size_t snapshot_every = 0;
  persist::DurabilityMode durability_mode = persist::DurabilityMode::Sync;
  std::string host = "127.0.0.1";
  std::size_t port = 0;
  std::size_t net_threads = 1;
  std::size_t max_seconds = 0;
  std::size_t connections = 1;
  std::size_t batch = 64;
  std::size_t repl_port = 0;
  std::string leader_host = "127.0.0.1";
  std::size_t leader_port = 0;
  std::size_t max_staleness_ms = 0;
  std::size_t read_from_follower = 0;
};

[[noreturn]] void usage(const char* message = nullptr) {
  if (message) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: larp_cli <command> [args] [options]\n"
               "  characterize <csv> <column>\n"
               "  assess       <csv> <column>\n"
               "  evaluate     <csv> <column>\n"
               "  forecast     <csv> <column>\n"
               "  walk         <csv> <column>\n"
               "  export       <vm>  <out.csv>\n"
               "  serve-sim\n"
               "  serve\n"
               "  replicate\n"
               "  follow\n"
               "  loadgen\n"
               "  snapshot     <data-dir>\n"
               "  restore      <data-dir>\n"
               "  inspect-snapshot <data-dir>\n"
               "options: --window N --k N --folds N --pool paper|extended\n"
               "         --seed N --train-frac F\n"
               "         --series N --steps N --threads N --shards N (serve-sim)\n"
               "         --data-dir PATH --snapshot-every N "
               "--durability sync|async (durability)\n"
               "         --host H --port N --net-threads N --max-seconds N "
               "(serve)\n"
               "         --threads N --connections N --batch N "
               "--read-from-follower N (loadgen)\n"
               "         --repl-port N (replicate)\n"
               "         --leader-host H --leader-port N --max-staleness-ms N "
               "(follow)\n");
  std::exit(2);
}

// Strict numeric flag parsing: the whole value must convert, no sign tricks,
// no trailing garbage — anything else is a usage error (exit 2), never an
// uncaught std::invalid_argument.
std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  std::size_t consumed = 0;
  try {
    if (value.empty() || value[0] == '-' || value[0] == '+') throw 0;
    const unsigned long long v = std::stoull(value, &consumed);
    if (consumed != value.size()) throw 0;
    return v;
  } catch (...) {
    usage((flag + " expects a non-negative integer, got '" + value + "'")
              .c_str());
  }
}

std::size_t parse_size(const std::string& flag, const std::string& value) {
  return static_cast<std::size_t>(parse_u64(flag, value));
}

double parse_f64(const std::string& flag, const std::string& value) {
  std::size_t consumed = 0;
  try {
    const double v = std::stod(value, &consumed);
    if (consumed != value.size()) throw 0;
    return v;
  } catch (...) {
    usage((flag + " expects a number, got '" + value + "'").c_str());
  }
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage();
  Options options;
  options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--window") options.window = parse_size(arg, next());
    else if (arg == "--k") options.k = parse_size(arg, next());
    else if (arg == "--folds") options.folds = parse_size(arg, next());
    else if (arg == "--pool") options.pool = next();
    else if (arg == "--seed") options.seed = parse_u64(arg, next());
    else if (arg == "--train-frac") options.train_fraction = parse_f64(arg, next());
    else if (arg == "--series") options.series = parse_size(arg, next());
    else if (arg == "--steps") options.steps = parse_size(arg, next());
    else if (arg == "--threads") options.threads = parse_size(arg, next());
    else if (arg == "--shards") options.shards = parse_size(arg, next());
    else if (arg == "--host") options.host = next();
    else if (arg == "--port") {
      options.port = parse_size(arg, next());
      if (options.port > 65535) usage("--port must fit in 16 bits");
    }
    else if (arg == "--net-threads") options.net_threads = parse_size(arg, next());
    else if (arg == "--max-seconds") options.max_seconds = parse_size(arg, next());
    else if (arg == "--connections") options.connections = parse_size(arg, next());
    else if (arg == "--batch") options.batch = parse_size(arg, next());
    else if (arg == "--repl-port") {
      options.repl_port = parse_size(arg, next());
      if (options.repl_port > 65535) usage("--repl-port must fit in 16 bits");
    }
    else if (arg == "--leader-host") options.leader_host = next();
    else if (arg == "--leader-port") {
      options.leader_port = parse_size(arg, next());
      if (options.leader_port > 65535) usage("--leader-port must fit in 16 bits");
    }
    else if (arg == "--max-staleness-ms")
      options.max_staleness_ms = parse_size(arg, next());
    else if (arg == "--read-from-follower") {
      options.read_from_follower = parse_size(arg, next());
      if (options.read_from_follower > 65535) {
        usage("--read-from-follower must fit in 16 bits");
      }
    }
    else if (arg == "--data-dir") options.data_dir = next();
    else if (arg == "--snapshot-every")
      options.snapshot_every = parse_size(arg, next());
    else if (arg == "--durability") {
      const std::string mode = next();
      if (mode == "sync") options.durability_mode = persist::DurabilityMode::Sync;
      else if (mode == "async")
        options.durability_mode = persist::DurabilityMode::Async;
      else usage("--durability must be sync or async");
    }
    else if (arg.rfind("--", 0) == 0) usage(("unknown option " + arg).c_str());
    else options.positional.push_back(arg);
  }
  return options;
}

std::vector<double> load_column(const Options& options) {
  if (options.positional.size() < 2) usage("need <csv> <column>");
  const auto table = csv::read_file(options.positional[0]);
  return table.numeric_column(options.positional[1]);
}

predictors::PredictorPool make_pool(const Options& options) {
  if (options.pool == "paper") return predictors::make_paper_pool(options.window);
  if (options.pool == "extended") {
    return predictors::make_extended_pool(options.window);
  }
  usage("--pool must be 'paper' or 'extended'");
}

core::LarConfig make_config(const Options& options) {
  core::LarConfig config;
  config.window = options.window;
  config.knn_k = options.k;
  config.pca_components = 0;
  config.pca_min_variance = 0.85;
  return config;
}

int cmd_characterize(const Options& options) {
  const auto series = load_column(options);
  const auto c = tracegen::characterize(series);
  std::cout << options.positional[1] << ": " << c << '\n';
  return 0;
}

int cmd_assess(const Options& options) {
  const auto series = load_column(options);
  const auto pool = make_pool(options);
  ml::CrossValidationPlan plan;
  plan.folds = options.folds;
  Rng rng(options.seed);
  const auto report = core::assess_applicability(series, pool,
                                                 make_config(options), plan, rng);
  std::printf("verdict: %s\n", core::to_string(report.verdict));
  if (report.verdict != core::ApplicabilityVerdict::NotApplicable) {
    std::printf("best single expert: %s (MSE %.6g)\n",
                pool.name(report.best_single_label).c_str(),
                report.mse_best_single);
    std::printf("oracle headroom:    %.1f%% (P-LAR MSE %.6g)\n",
                100.0 * report.oracle_headroom, report.mse_oracle);
    std::printf("realized gain:      %.1f%% (LAR MSE %.6g)\n",
                100.0 * report.realized_gain, report.mse_lar);
    std::printf("selection accuracy: %.1f%% (chance %.1f%%)\n",
                100.0 * report.selection_accuracy,
                100.0 * report.chance_accuracy);
    std::printf("label churn:        %.1f%%   label entropy: %.1f%%\n",
                100.0 * report.label_churn, 100.0 * report.label_entropy);
  }
  std::printf("%s\n", report.explanation.c_str());
  return 0;
}

int cmd_evaluate(const Options& options) {
  const auto series = load_column(options);
  const auto pool = make_pool(options);
  ml::CrossValidationPlan plan;
  plan.folds = options.folds;
  Rng rng(options.seed);
  const auto result = core::cross_validate(series, pool, make_config(options),
                                           plan, rng);
  if (result.degenerate) {
    std::printf("degenerate trace (zero variance): nothing to evaluate\n");
    return 0;
  }
  core::TextTable table({"strategy", "normalized MSE", "accuracy"});
  table.add_row({"P-LAR (oracle)", core::TextTable::num(result.mse_oracle), "-"});
  table.add_row({"LAR (k-NN)", core::TextTable::num(result.mse_lar),
                 core::TextTable::pct(result.lar_accuracy)});
  table.add_row({"NWS Cum.MSE", core::TextTable::num(result.mse_nws),
                 core::TextTable::pct(result.nws_accuracy)});
  table.add_row({"NWS W-Cum.MSE(2)", core::TextTable::num(result.mse_wnws),
                 core::TextTable::pct(result.wnws_accuracy)});
  for (std::size_t p = 0; p < pool.size(); ++p) {
    table.add_row({pool.name(p), core::TextTable::num(result.mse_single[p]), "-"});
  }
  table.print(std::cout);
  std::printf("\nLAR %s the best single expert; LAR %s the NWS selection "
              "(%zu folds).\n",
              result.lar_beats_best_single() ? "matched/beat" : "trailed",
              result.lar_beats_nws() ? "beat" : "trailed", result.folds);
  return 0;
}

int cmd_forecast(const Options& options) {
  const auto series = load_column(options);
  if (options.train_fraction <= 0.0 || options.train_fraction >= 1.0) {
    usage("--train-frac must be in (0, 1)");
  }
  const std::size_t split =
      static_cast<std::size_t>(series.size() * options.train_fraction);
  core::LarPredictor lar(make_pool(options), make_config(options));
  lar.train(std::span<const double>(series.data(), split));

  const auto pool_names = lar.pool().names();
  csv::write_row(std::cout, {"index", "actual", "forecast", "expert",
                             "uncertainty"});
  for (std::size_t t = split; t < series.size(); ++t) {
    const auto forecast = lar.predict_next();
    csv::write_row(std::cout,
                   {std::to_string(t), std::to_string(series[t]),
                    std::to_string(forecast.value), pool_names[forecast.label],
                    std::to_string(forecast.uncertainty)});
    lar.observe(series[t]);
  }
  return 0;
}

int cmd_walk(const Options& options) {
  const auto series = load_column(options);
  const auto pool = make_pool(options);
  core::RollingOriginConfig config;
  config.lar = make_config(options);
  config.initial_train = static_cast<std::size_t>(
      series.size() * options.train_fraction);
  config.retrain_every = 48;
  const auto r = core::rolling_origin_evaluate(series, pool, config);

  core::TextTable table({"strategy", "raw MSE"});
  table.add_row({"P-LAR (oracle)", core::TextTable::num(r.mse_oracle, 3)});
  table.add_row({"LAR (deployed)", core::TextTable::num(r.mse_lar, 3)});
  table.add_row({"NWS Cum.MSE", core::TextTable::num(r.mse_nws, 3)});
  table.add_row({"NWS W-Cum.MSE(2)", core::TextTable::num(r.mse_wnws, 3)});
  for (std::size_t p = 0; p < pool.size(); ++p) {
    table.add_row({pool.name(p), core::TextTable::num(r.mse_single[p], 3)});
  }
  table.print(std::cout);
  std::printf("\nwalked %zu steps, re-trained %zu times; expert usage:",
              r.steps, r.retrains);
  for (std::size_t p = 0; p < pool.size(); ++p) {
    std::printf(" %s=%zu", pool.name(p).c_str(), r.expert_usage[p]);
  }
  std::printf("\n");
  return 0;
}

int cmd_serve_sim(const Options& options) {
  if (options.series == 0 || options.steps == 0) {
    usage("--series and --steps must be positive");
  }
  serve::EngineConfig config;
  config.lar = make_config(options);
  config.shards = options.shards;
  config.threads = options.threads;
  // Raw units.  The AR(1) streams below have a one-step forecast MSE around
  // 4.4, so this fires only on genuinely degraded series, not on the noise
  // floor.
  config.quality.mse_threshold = 6.5;
  if (!options.data_dir.empty()) {
    config.durability.data_dir = options.data_dir;
    config.durability.wal.mode = options.durability_mode;
  }

  serve::PredictionEngine engine(make_pool(options), config);

  // One synthetic AR(1) stream per (host, metric) series, each with a
  // private RNG split so results are independent of batch composition.
  Rng parent(options.seed);
  std::vector<tsdb::SeriesKey> keys(options.series);
  std::vector<Rng> rngs;
  std::vector<double> level(options.series, 0.0);
  rngs.reserve(options.series);
  for (std::size_t s = 0; s < options.series; ++s) {
    keys[s] = {"host" + std::to_string(s / 8), "dev" + std::to_string(s % 8),
               "metric"};
    rngs.push_back(parent.split(s));
  }
  const auto sample = [&](std::size_t s) {
    level[s] = 0.8 * level[s] + rngs[s].normal(0.0, 2.0);
    return 50.0 + level[s];
  };

  std::vector<serve::Observation> batch(options.series);
  const auto fill_batch = [&] {
    for (std::size_t s = 0; s < options.series; ++s) {
      batch[s] = {keys[s], sample(s)};
    }
  };

  // Warm-up: feed until every series has lazily trained itself.
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < config.train_samples; ++i) {
    fill_batch();
    engine.observe(batch);
  }

  // Steady state: one predict + observe round per step, all series batched.
  std::size_t snapshots_written = 0;
  const auto t1 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < options.steps; ++i) {
    (void)engine.predict(keys);
    fill_batch();
    engine.observe(batch);
    // No maintenance tick here: the engine's own WalSyncer thread bounds
    // the Interval-policy (and async-mode) loss windows.
    if (!options.data_dir.empty() && options.snapshot_every > 0 &&
        (i + 1) % options.snapshot_every == 0) {
      (void)engine.snapshot();
      ++snapshots_written;
    }
  }
  const auto t2 = std::chrono::steady_clock::now();
  if (!options.data_dir.empty()) {
    const auto epoch = engine.snapshot();
    ++snapshots_written;
    std::printf("durability: %zu snapshot(s) into %s (final epoch %llu)\n",
                snapshots_written, options.data_dir.c_str(),
                static_cast<unsigned long long>(epoch));
  }

  const auto stats = engine.stats();
  const double steady_sec =
      std::chrono::duration<double>(t2 - t1).count();
  const double series_steps = static_cast<double>(options.series) *
                              static_cast<double>(options.steps);
  std::printf("serve-sim: %zu series x %zu steps, %zu shards, %zu threads\n",
              options.series, options.steps, options.shards, engine.threads());
  std::printf("  warm-up           %.3f s (%zu samples/series)\n",
              std::chrono::duration<double>(t1 - t0).count(),
              config.train_samples);
  std::printf("  steady state      %.3f s -> %.0f series-steps/s\n",
              steady_sec, series_steps / steady_sec);
  std::printf("  trained series    %zu/%zu (trains %zu, retrains %zu, audits %zu)\n",
              stats.trained_series, stats.series, stats.trains, stats.retrains,
              stats.audits);
  std::printf("  resolved          %zu forecasts, MAE %.4f, MSE %.4f\n",
              stats.resolved, stats.mean_absolute_error,
              stats.mean_squared_error);
  std::printf("  engine time       observe %.3f s, predict %.3f s\n",
              stats.observe_seconds, stats.predict_seconds);
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;
void serve_signal_handler(int) { g_serve_stop = 1; }

int cmd_serve(const Options& options) {
  serve::EngineConfig config;
  config.lar = make_config(options);
  config.shards = options.shards;
  config.threads = options.threads;
  if (!options.data_dir.empty()) {
    config.durability.data_dir = options.data_dir;
    config.durability.wal.mode = options.durability_mode;
  }
  serve::PredictionEngine engine(make_pool(options), config);

  net::ServerConfig server_config;
  server_config.host = options.host;
  server_config.port = static_cast<std::uint16_t>(options.port);
  server_config.event_threads = options.net_threads;
  net::Server server(engine, server_config);
  server.start();
  // The bound port on its own line, flushed immediately, so wrapper scripts
  // binding port 0 can read it before any client connects.
  std::printf("listening on %s:%u\n", options.host.c_str(), server.port());
  std::fflush(stdout);

  g_serve_stop = 0;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  const auto t0 = std::chrono::steady_clock::now();
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (options.max_seconds > 0 &&
        std::chrono::steady_clock::now() - t0 >=
            std::chrono::seconds(options.max_seconds)) {
      break;
    }
  }
  const double served_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  server.stop();

  const auto net_stats = server.stats();
  const auto loop_stats = server.loop_stats();
  const auto engine_stats = engine.stats();
  std::printf("served: %llu connections, %llu frames in, %llu frames out\n",
              static_cast<unsigned long long>(net_stats.connections_accepted),
              static_cast<unsigned long long>(net_stats.frames_in),
              static_cast<unsigned long long>(net_stats.frames_out));
  std::printf("  batching          %llu observe batches, %llu predict "
              "batches, %llu protocol errors\n",
              static_cast<unsigned long long>(net_stats.observe_batches),
              static_cast<unsigned long long>(net_stats.predict_batches),
              static_cast<unsigned long long>(net_stats.protocol_errors));
  for (std::size_t i = 0; i < loop_stats.size(); ++i) {
    const auto& loop = loop_stats[i];
    std::printf("  loop %-2zu           %llu conns, %llu frames in, "
                "%llu wakeups, %.1f%% busy\n",
                i, static_cast<unsigned long long>(loop.connections),
                static_cast<unsigned long long>(loop.frames_in),
                static_cast<unsigned long long>(loop.wakeups),
                served_seconds > 0.0
                    ? 100.0 * loop.busy_seconds / served_seconds
                    : 0.0);
  }
  std::printf("  engine            %zu series, %zu observations, "
              "%zu predictions\n",
              engine_stats.series, engine_stats.observations,
              engine_stats.predictions);
  std::printf("  shard contention  %zu contended locks, %.3f s blocked\n",
              engine_stats.contended_locks, engine_stats.lock_wait_seconds);
  if (!options.data_dir.empty()) {
    const auto epoch = engine.snapshot();
    std::printf("  final snapshot    epoch %llu into %s\n",
                static_cast<unsigned long long>(epoch),
                options.data_dir.c_str());
  }
  return 0;
}

// Leader mode: a normal serve front-end plus a replication listener that
// streams the engine's WAL to followers.  The data dir is required (that
// WAL is what gets shipped); an existing dir is restored, a fresh one
// starts empty.
int cmd_replicate(const Options& options) {
  if (options.data_dir.empty()) usage("replicate needs --data-dir");
  serve::EngineConfig config;
  config.lar = make_config(options);
  config.shards = options.shards;
  config.threads = options.threads;
  config.durability.data_dir = options.data_dir;
  config.durability.wal.mode = options.durability_mode;
  const auto engine = serve::PredictionEngine::restore(
      make_pool(options), options.data_dir, config);

  net::ServerConfig server_config;
  server_config.host = options.host;
  server_config.port = static_cast<std::uint16_t>(options.port);
  server_config.event_threads = options.net_threads;
  net::Server server(*engine, server_config);
  server.start();

  replication::ReplicationServerConfig repl_config;
  repl_config.host = options.host;
  repl_config.port = static_cast<std::uint16_t>(options.repl_port);
  replication::ReplicationServer repl(*engine, repl_config);
  repl.start();

  std::printf("listening on %s:%u\n", options.host.c_str(), server.port());
  std::printf("replicating on %s:%u\n", options.host.c_str(), repl.port());
  std::fflush(stdout);

  g_serve_stop = 0;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  const auto t0 = std::chrono::steady_clock::now();
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (options.max_seconds > 0 &&
        std::chrono::steady_clock::now() - t0 >=
            std::chrono::seconds(options.max_seconds)) {
      break;
    }
  }
  repl.stop();
  server.stop();

  const auto repl_stats = repl.stats();
  std::printf("replication: %zu sessions (%zu live at stop), %zu frames "
              "shipped, %zu snapshots shipped, %zu heartbeats\n",
              repl_stats.sessions_total, repl_stats.followers_connected,
              repl_stats.frames_shipped, repl_stats.snapshots_shipped,
              repl_stats.heartbeats_sent);
  const auto epoch = engine->snapshot();
  std::printf("final snapshot epoch %llu into %s\n",
              static_cast<unsigned long long>(epoch),
              options.data_dir.c_str());
  return 0;
}

// Follower mode: bootstrap/resume from the leader, then serve staleness-
// bounded reads over the normal front-end (observes are rejected — they
// must reach the leader).
int cmd_follow(const Options& options) {
  if (options.data_dir.empty()) usage("follow needs --data-dir");
  if (options.leader_port == 0) usage("follow needs --leader-port");

  replication::ReplicaConfig config;
  config.leader_host = options.leader_host;
  config.leader_port = static_cast<std::uint16_t>(options.leader_port);
  config.data_dir = options.data_dir;
  config.engine.lar = make_config(options);
  config.engine.shards = options.shards;
  config.engine.threads = options.threads;
  config.engine.durability.wal.mode = options.durability_mode;
  config.engine.max_staleness =
      std::chrono::milliseconds(options.max_staleness_ms);

  replication::Replica replica(make_pool(options), config);
  replica.start();
  serve::PredictionEngine* engine =
      replica.wait_until_ready(std::chrono::seconds(30));
  if (engine == nullptr) {
    std::fprintf(stderr, "error: follower failed to bootstrap from %s:%zu\n",
                 options.leader_host.c_str(), options.leader_port);
    return 1;
  }

  net::ServerConfig server_config;
  server_config.host = options.host;
  server_config.port = static_cast<std::uint16_t>(options.port);
  server_config.event_threads = options.net_threads;
  net::Server server(*engine, server_config);
  server.start();
  std::printf("listening on %s:%u\n", options.host.c_str(), server.port());
  std::printf("following %s:%zu\n", options.leader_host.c_str(),
              options.leader_port);
  std::fflush(stdout);

  g_serve_stop = 0;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  const auto t0 = std::chrono::steady_clock::now();
  while (g_serve_stop == 0 && !replica.stats().failed) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (options.max_seconds > 0 &&
        std::chrono::steady_clock::now() - t0 >=
            std::chrono::seconds(options.max_seconds)) {
      break;
    }
  }
  server.stop();
  replica.stop();

  const auto replica_stats = replica.stats();
  const auto engine_stats = engine->stats();
  std::printf("follower: %zu bootstraps, %zu reconnects%s\n",
              replica_stats.bootstraps, replica_stats.reconnects,
              replica_stats.failed ? " (FAILED: restart to re-bootstrap)" : "");
  std::printf("  replication       %zu frames applied, lag %.3f s, %s\n",
              engine_stats.replicated_frames,
              engine_stats.replication_lag_seconds,
              engine_stats.replication_fresh ? "fresh" : "stale");
  std::printf("  engine            %zu series, %zu predictions served\n",
              engine_stats.series, engine_stats.predictions);
  return replica_stats.failed ? 1 : 0;
}

int cmd_loadgen(const Options& options) {
  if (options.port == 0) usage("loadgen needs --port");
  if (options.connections == 0 || options.series == 0 || options.steps == 0 ||
      options.batch == 0) {
    usage("--connections, --series, --steps, --batch must be positive");
  }
  // --threads worker threads, each fanning out over --connections pipelined
  // connections: a round starts the request on every connection before
  // finishing any, so one thread keeps C requests in flight — enough
  // offered concurrency to exercise a multi-loop server without paying one
  // OS thread per connection on the loadgen side.
  const std::size_t threads = options.threads == 0 ? 1 : options.threads;
  struct ConnResult {
    std::vector<double> latencies_us;  // per request round trip
    std::uint64_t series_steps = 0;
    std::uint64_t stale_replies = 0;  // follower kStale refusals
  };
  struct WorkerResult {
    std::vector<ConnResult> conns;
    std::string error;
  };
  std::vector<WorkerResult> results(threads);
  std::vector<std::thread> workers;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      WorkerResult& result = results[t];
      result.conns.resize(options.connections);
      try {
        std::vector<std::unique_ptr<net::Client>> clients;
        // With --read-from-follower, predicts go to the follower's port on
        // their own connections; observes still go to the leader (--port).
        std::vector<std::unique_ptr<net::Client>> follower_clients;
        std::vector<net::Client*> readers(options.connections);
        // Disjoint key space per (thread, connection) so shard contention
        // comes from concurrency, not key collisions.
        std::vector<std::vector<tsdb::SeriesKey>> keys(options.connections);
        for (std::size_t c = 0; c < options.connections; ++c) {
          clients.push_back(std::make_unique<net::Client>(
              options.host, static_cast<std::uint16_t>(options.port)));
          if (options.read_from_follower != 0) {
            follower_clients.push_back(std::make_unique<net::Client>(
                options.host,
                static_cast<std::uint16_t>(options.read_from_follower)));
            readers[c] = follower_clients.back().get();
          } else {
            readers[c] = clients.back().get();
          }
          keys[c].resize(options.series);
          for (std::size_t s = 0; s < options.series; ++s) {
            keys[c][s] = {"lg" + std::to_string(t) + "c" + std::to_string(c),
                          "dev" + std::to_string(s % 8),
                          "m" + std::to_string(s)};
          }
          result.conns[c].latencies_us.reserve(options.steps * 2);
        }
        Rng rng(options.seed + t);
        std::vector<serve::Observation> batch(options.batch);
        std::vector<serve::Prediction> predictions;
        std::vector<std::uint64_t> ids(options.connections);
        std::vector<std::chrono::steady_clock::time_point> started(
            options.connections);
        const auto finish_round = [&](bool predicts, std::size_t n) {
          for (std::size_t c = 0; c < options.connections; ++c) {
            if (predicts) {
              try {
                readers[c]->finish_predict(ids[c], n, predictions);
              } catch (const net::ServerError& e) {
                // A follower refusing a read for lag is load-sheddable, not
                // fatal: count it and keep the connection.
                if (e.code() != net::ErrorCode::kStale) throw;
                ++result.conns[c].stale_replies;
              }
            } else {
              (void)clients[c]->finish_observe(ids[c]);
            }
            result.conns[c].latencies_us.push_back(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - started[c])
                    .count());
          }
        };
        for (std::size_t step = 0; step < options.steps; ++step) {
          for (std::size_t lo = 0; lo < options.series; lo += options.batch) {
            const std::size_t n =
                std::min(options.batch, options.series - lo);
            for (std::size_t c = 0; c < options.connections; ++c) {
              for (std::size_t i = 0; i < n; ++i) {
                batch[i] = {keys[c][lo + i], 50.0 + rng.normal(0.0, 2.0)};
              }
              started[c] = std::chrono::steady_clock::now();
              ids[c] = clients[c]->start_observe(
                  std::span<const serve::Observation>(batch.data(), n));
            }
            finish_round(/*predicts=*/false, n);
            for (std::size_t c = 0; c < options.connections; ++c) {
              started[c] = std::chrono::steady_clock::now();
              ids[c] = readers[c]->start_predict(
                  std::span<const tsdb::SeriesKey>(keys[c].data() + lo, n));
            }
            finish_round(/*predicts=*/true, n);
            for (std::size_t c = 0; c < options.connections; ++c) {
              result.conns[c].series_steps += n;
            }
          }
        }
      } catch (const std::exception& e) {
        result.error = e.what();
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto pct = [](const std::vector<double>& sorted, double p) {
    const auto at = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[at];
  };
  std::vector<double> all;
  std::vector<double> conn_p50s;
  std::vector<double> conn_p99s;
  std::uint64_t series_steps = 0;
  std::uint64_t stale_replies = 0;
  for (auto& result : results) {
    if (!result.error.empty()) {
      std::fprintf(stderr, "error: loadgen worker failed: %s\n",
                   result.error.c_str());
      return 1;
    }
    for (auto& conn : result.conns) {
      stale_replies += conn.stale_replies;
      if (conn.latencies_us.empty()) continue;
      std::sort(conn.latencies_us.begin(), conn.latencies_us.end());
      conn_p50s.push_back(pct(conn.latencies_us, 0.50));
      conn_p99s.push_back(pct(conn.latencies_us, 0.99));
      all.insert(all.end(), conn.latencies_us.begin(),
                 conn.latencies_us.end());
      series_steps += conn.series_steps;
    }
  }
  std::sort(all.begin(), all.end());
  std::printf("loadgen: %zu threads x %zu connections x %zu series x %zu "
              "steps (batch %zu) against %s:%zu\n",
              threads, options.connections, options.series, options.steps,
              options.batch, options.host.c_str(), options.port);
  std::printf("  observe+predict   %.3f s -> %.0f series-steps/s\n", wall,
              static_cast<double>(series_steps) / wall);
  std::printf("  request latency   p50 %.1f us  p95 %.1f us  p99 %.1f us "
              "(%zu requests)\n",
              pct(all, 0.50), pct(all, 0.95), pct(all, 0.99), all.size());
  const auto minmax_p50 = std::minmax_element(conn_p50s.begin(), conn_p50s.end());
  const auto minmax_p99 = std::minmax_element(conn_p99s.begin(), conn_p99s.end());
  std::printf("  per-connection    p50 %.1f..%.1f us  p99 %.1f..%.1f us "
              "(%zu connections)\n",
              *minmax_p50.first, *minmax_p50.second, *minmax_p99.first,
              *minmax_p99.second, conn_p50s.size());
  if (options.read_from_follower != 0) {
    std::printf("  follower reads    port %zu, %llu stale refusals\n",
                options.read_from_follower,
                static_cast<unsigned long long>(stale_replies));
  }
  return 0;
}

// The pool prototype must match the one used when the snapshot was written
// (pool composition is not serialized); --pool/--window select it, with the
// same defaults serve-sim uses.
std::unique_ptr<serve::PredictionEngine> restore_engine(const Options& options) {
  if (options.positional.empty()) usage("need <data-dir>");
  return serve::PredictionEngine::restore(make_pool(options),
                                          options.positional[0]);
}

void print_engine_summary(const serve::PredictionEngine& engine) {
  const auto stats = engine.stats();
  std::printf("engine: %zu shards, %zu series (%zu trained)\n",
              engine.config().shards, stats.series, stats.trained_series);
  std::printf("  lifetime          %zu observations, %zu predictions, "
              "%zu erases\n",
              stats.observations, stats.predictions, stats.erases);
  std::printf("  training          %zu trains, %zu retrains, %zu audits\n",
              stats.trains, stats.retrains, stats.audits);
  std::printf("  resolved          %zu forecasts, MAE %.4f, MSE %.4f\n",
              stats.resolved, stats.mean_absolute_error,
              stats.mean_squared_error);
}

int cmd_restore(const Options& options) {
  const auto engine = restore_engine(options);
  std::printf("restored from %s\n", options.positional[0].c_str());
  print_engine_summary(*engine);
  return 0;
}

// Offline compaction: restore (snapshot + WAL replay), then publish a fresh
// snapshot, which also prunes the WAL segments it makes obsolete.
int cmd_snapshot(const Options& options) {
  const auto engine = restore_engine(options);
  const auto epoch = engine->snapshot();
  std::printf("wrote snapshot epoch %llu to %s\n",
              static_cast<unsigned long long>(epoch),
              options.positional[0].c_str());
  print_engine_summary(*engine);
  return 0;
}

int cmd_inspect_snapshot(const Options& options) {
  if (options.positional.empty()) usage("need <data-dir>");
  const std::filesystem::path dir = options.positional[0];
  const auto snapshots = persist::list_snapshots(dir);
  if (snapshots.empty()) std::printf("no snapshots in %s\n", dir.c_str());
  bool any_valid = false;
  for (const auto& info : snapshots) {
    try {
      const auto loaded = persist::load_snapshot(info.path);
      // The container version is fixed; the engine payload carries its own
      // layout version (v1: global counters, v2: per-shard watermark table,
      // v4: compressed sections + byte accounting), parsed header-only —
      // inspect never deserializes the shard sections.
      const auto desc = serve::PredictionEngine::describe_payload(
          loaded.payload);
      std::printf(
          "%s  epoch %llu  format %u  engine-payload v%u  %zu payload bytes"
          "  OK\n",
          info.path.filename().c_str(),
          static_cast<unsigned long long>(loaded.epoch), loaded.version,
          desc.payload_version, loaded.payload.size());
      for (std::size_t s = 0; s < desc.raw_bytes.size(); ++s) {
        const double ratio =
            desc.encoded_bytes[s] > 0
                ? static_cast<double>(desc.raw_bytes[s]) /
                      static_cast<double>(desc.encoded_bytes[s])
                : 0.0;
        std::printf(
            "  shard %zu  raw %llu bytes  encoded %llu bytes  (%.2fx)\n", s,
            static_cast<unsigned long long>(desc.raw_bytes[s]),
            static_cast<unsigned long long>(desc.encoded_bytes[s]), ratio);
      }
      any_valid = true;
    } catch (const larp::Error& e) {
      std::printf("%s  CORRUPT: %s\n", info.path.filename().c_str(), e.what());
    }
  }
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0 || entry.path().extension() != ".log") {
      continue;
    }
    std::printf("%s  %llu bytes\n", name.c_str(),
                static_cast<unsigned long long>(entry.file_size()));
  }
  return (snapshots.empty() || any_valid) ? 0 : 1;
}

int cmd_export(const Options& options) {
  if (options.positional.size() < 2) usage("need <vm> <out.csv>");
  const auto suite = tracegen::make_vm_suite(options.positional[0],
                                             options.seed);
  csv::Table table;
  table.header.push_back("timestamp");
  for (const auto& [key, series] : suite) table.header.push_back(key.metric);
  const auto& axis = suite.front().second.axis;
  for (std::size_t i = 0; i < axis.size(); ++i) {
    std::vector<std::string> row{std::to_string(axis.at(i))};
    for (const auto& [key, series] : suite) {
      row.push_back(std::to_string(series.values[i]));
    }
    table.rows.push_back(std::move(row));
  }
  std::ofstream out(options.positional[1]);
  if (!out) usage("cannot open output file");
  csv::write(out, table);
  std::printf("wrote %zu samples x %zu metrics to %s\n", table.rows.size(),
              suite.size(), options.positional[1].c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    if (options.command == "characterize") return cmd_characterize(options);
    if (options.command == "assess") return cmd_assess(options);
    if (options.command == "evaluate") return cmd_evaluate(options);
    if (options.command == "forecast") return cmd_forecast(options);
    if (options.command == "walk") return cmd_walk(options);
    if (options.command == "export") return cmd_export(options);
    if (options.command == "serve-sim") return cmd_serve_sim(options);
    if (options.command == "serve") return cmd_serve(options);
    if (options.command == "replicate") return cmd_replicate(options);
    if (options.command == "follow") return cmd_follow(options);
    if (options.command == "loadgen") return cmd_loadgen(options);
    if (options.command == "snapshot") return cmd_snapshot(options);
    if (options.command == "restore") return cmd_restore(options);
    if (options.command == "inspect-snapshot") {
      return cmd_inspect_snapshot(options);
    }
    usage(("unknown command " + options.command).c_str());
  } catch (const larp::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
