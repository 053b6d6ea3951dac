// larp_perfbench: runs one benchmark workload and prints its result as one
// JSON line on stdout (progress goes to stderr).  run.py builds and drives
// it; see NOTES.md for the workloads and metrics.
//
//   larp_perfbench --workload steady|churn|recover --seed N --seconds S
//                  --data-dir DIR [--trace] [--trace-out FILE] [--smoke]
//
// --seconds sets a fixed number of rounds (rounds per second calibrated on
// the reference host), never a deadline: a run's work depends on its
// arguments only.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "common.hpp"
#include "fleet.hpp"
#include "net/server.hpp"
#include "recovery.hpp"
#include "shadow.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using larp::serve::EngineStats;
using larp::serve::PredictionEngine;

// Rounds per requested second on the reference host (4 vCPU Xeon).
constexpr double kSteadyRoundsPerSecond = 30.0;
constexpr double kChurnRoundsPerSecond = 110.0;
constexpr double kRecoverRoundsPerSecond = 25.0;

// Fixed thread counts (never scaled to the host; at most 4 in total).
constexpr std::size_t kServeWorkers = 2;   // steady and recover engines
constexpr std::size_t kEventLoops = 1;     // steady's net::Server
constexpr std::size_t kChurnWorkers = 1;   // churn runs inline on the caller

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path trace_out;
  fs::path data_dir;
  bool smoke = false;
};

struct Context {
  Args args;
  Clock::time_point start = Clock::now();
  Tracer tracer;
  OpLog log;
  Failures failures;
  Metrics metrics;
  double rss_baseline_mib = 0.0;
  std::size_t series = 0;
  std::size_t timed_rounds = 0;
  std::string threads;  // provenance
};

std::size_t rounds_for(const Context& ctx, double per_second,
                       std::size_t minimum) {
  if (ctx.args.smoke) return minimum;
  const auto rounds =
      static_cast<std::size_t>(std::llround(ctx.args.seconds * per_second));
  return std::max(rounds, minimum);
}

std::size_t replicas(const Context& ctx) { return ctx.args.smoke ? 2 : kReplicas; }

// One stderr line per step, so a run that dies still tells how far it got.
void progress(const Context& ctx, const char* phase) {
  std::fprintf(stderr, "progress attempted=%llu failed=%llu phase=%s\n",
               static_cast<unsigned long long>(ctx.failures.attempted),
               static_cast<unsigned long long>(ctx.failures.failed), phase);
}

std::uint64_t wal_bytes(const fs::path& dir) {
  return fs::exists(dir) ? prefixed_bytes(dir, "wal-") : 0;
}

// -- inputs -----------------------------------------------------------------

// Long-lived series (steady, recover): series i is catalog model i % 60,
// seed replica i / 60, and starts observing at round i % 24, so audits are
// spread evenly over the 24-observation audit period.
class LongLivedFleet {
 public:
  LongLivedFleet(Context& ctx, std::size_t samples, std::size_t phases) {
    const auto& models = catalog_models();
    const std::size_t n = models.size() * replicas(ctx);
    keys_.reserve(n);
    values_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Model& m = models[i % models.size()];
      const std::size_t r = i / models.size();
      keys_.push_back(SeriesKey{m.vm + "-r" + std::to_string(r), m.device, m.metric});
      values_.push_back(make_values(m, trace_seed(ctx.args.seed, r), samples));
      phase_.push_back(i % phases);
      std::int32_t log = -1;
      if (ctx.log.enabled && i % kShadowEvery == 0) {
        log = static_cast<std::int32_t>(ctx.log.keys.size());
        ctx.log.keys.push_back(keys_.back());
      }
      log_.push_back(log);
    }
  }

  /// Builds round `t`'s input: every series whose phase has started.
  void fill(std::size_t t, std::size_t train_samples) {
    input.clear();
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (t < phase_[i]) continue;
      const std::size_t step = t - phase_[i];
      const double prev = step > 0 ? values_[i][step - 1] : std::nan("");
      input.push(keys_[i], i % catalog_models().size(), values_[i][step], prev,
                 log_[i], step >= train_samples);
    }
  }

  /// Long-lived series never turn over.
  void advance() {}

  [[nodiscard]] const std::vector<SeriesKey>& keys() const { return keys_; }
  RoundInput input;

 private:
  std::vector<SeriesKey> keys_;
  std::vector<std::vector<double>> values_;
  std::vector<std::size_t> phase_;
  std::vector<std::int32_t> log_;
};

// Fleet turnover (churn): slot j holds one series at a time, catalog model
// j % 60.  Each series lives `lifetime` rounds and is then erased; the slot
// admits a new key with a fresh trace.  Slot j first admits at round
// j % lifetime, so every round turns over the same share of the slots.
class ChurnFleet {
 public:
  ChurnFleet(Context& ctx, std::size_t lifetime)
      : ctx_(ctx), lifetime_(lifetime) {
    const std::size_t n = catalog_models().size() * replicas(ctx);
    keys_.resize(n);
    values_.resize(n);
    age_.assign(n, 0);
    generation_.assign(n, 0);
    live_.assign(n, 0);
    log_.assign(n, -1);
  }

  /// Builds round `t`'s input; slots whose first admission is due join.
  void fill(std::size_t t, std::size_t train_samples) {
    input.clear();
    for (std::size_t j = 0; j < keys_.size(); ++j) {
      if (live_[j] == 0) {
        if (t < j % lifetime_) continue;
        admit(j);
      }
      const std::size_t age = age_[j];
      const double prev = age > 0 ? values_[j][age - 1] : std::nan("");
      input.push(keys_[j], j % catalog_models().size(), values_[j][age], prev,
                 log_[j], age >= train_samples);
      if (age + 1 == lifetime_) input.erase.push_back(input.size() - 1);
    }
  }

  /// After a round: every live series aged one observation; the erased ones
  /// are replaced (trace generation stays outside the timed rounds).
  void advance() {
    for (std::size_t j = 0; j < keys_.size(); ++j) {
      if (live_[j] == 0) continue;
      if (++age_[j] == lifetime_) admit(j);
    }
  }

  /// Current key of every slot (updated in place; stable storage).
  [[nodiscard]] std::span<const SeriesKey> keys() const { return keys_; }
  RoundInput input;

 private:
  void admit(std::size_t j) {
    const auto& models = catalog_models();
    const Model& m = models[j % models.size()];
    const std::uint32_t g = generation_[j]++;
    keys_[j] = SeriesKey{m.vm + "-s" + std::to_string(j) + "-g" + std::to_string(g),
                         m.device, m.metric};
    const std::uint64_t stream = (1ull << 40) + (static_cast<std::uint64_t>(j) << 20) + g;
    values_[j] = make_values(m, trace_seed(ctx_.args.seed, stream), lifetime_);
    age_[j] = 0;
    live_[j] = 1;
    log_[j] = -1;
    if (ctx_.log.enabled && j % kShadowEvery == 0) {
      log_[j] = static_cast<std::int32_t>(ctx_.log.keys.size());
      ctx_.log.keys.push_back(keys_[j]);
    }
  }

  Context& ctx_;
  std::size_t lifetime_;
  std::vector<SeriesKey> keys_;
  std::vector<std::vector<double>> values_;
  std::vector<std::size_t> age_;
  std::vector<std::uint32_t> generation_;
  std::vector<std::uint8_t> live_;
  std::vector<std::int32_t> log_;
};

// -- metrics ----------------------------------------------------------------

struct Deltas {
  EngineStats before;
  EngineStats after;
  [[nodiscard]] double d(double EngineStats::*f) const {
    return after.*f - before.*f;
  }
  [[nodiscard]] double d(std::size_t EngineStats::*f) const {
    return static_cast<double>(after.*f - before.*f);
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void serving_metrics(Context& ctx, const RoundTotals& t, double peak_mib) {
  auto& m = ctx.metrics;
  // Rounds are alike (staggered phases, fixed batch), so the median round
  // gives the rate without the host's passing stalls.
  m.set("series_steps_per_s",
        ratio(static_cast<double>(t.series_steps) / static_cast<double>(t.rounds),
              median(t.round_seconds)),
        "series-steps/s");
  m.set("predict_p50_us", quantile(t.predict_us, 0.50), "us");
  m.set("predict_p99_us", quantile(t.predict_us, 0.99), "us");
  m.set("observe_p50_us", quantile(t.observe_us, 0.50), "us");
  m.set("observe_p99_us", quantile(t.observe_us, 0.99), "us");
  // Per catalog model, then averaged: pooled over all series the sums are
  // dominated by the few models with the largest raw magnitudes.
  double rel_mse = 0.0;
  std::size_t models = 0;
  for (std::size_t k = 0; k < t.model_sq_err.size(); ++k) {
    if (!(t.model_sq_base[k] > 0.0)) continue;
    rel_mse += t.model_sq_err[k] / t.model_sq_base[k];
    ++models;
  }
  m.set("forecast_rel_mse", ratio(rel_mse, static_cast<double>(models)), "ratio");
  m.set("ready_frac", ratio(t.ready, t.asked), "ratio");
  m.set("peak_rss_mb", peak_mib - ctx.rss_baseline_mib, "MiB");
}

void recovery_metrics(Context& ctx, const RecoveryResult& r) {
  auto& m = ctx.metrics;
  m.set("restore_s", median(r.restore_s), "s");
  m.set("snapshot_s", median(r.snapshot_s), "s");
  m.set("catchup_s", median(r.catchup_s), "s");
  m.set("disk_bytes_per_series", ratio(r.image_bytes, ctx.series), "B");
}

struct LayerInputs {
  const RoundTotals* totals = nullptr;
  Deltas stats;
  const RecoveryResult* recovery = nullptr;
  const ShadowResult* shadow = nullptr;
  double wal_growth_bytes = 0.0;
  double wal_ops = 0.0;  // engine ops logged while the growth was measured
  // steady only
  bool net = false;
  double loop_busy_seconds = 0.0;
};

void layer_metrics(Context& ctx, const LayerInputs& in) {
  auto& m = ctx.metrics;
  const Tracer& tr = ctx.tracer;
  const RoundTotals& t = *in.totals;
  const Deltas& s = in.stats;
  const double rounds = static_cast<double>(t.rounds);
  const double engine_seconds =
      s.d(&EngineStats::observe_seconds) + s.d(&EngineStats::predict_seconds);

  m.set("net.wire_us_per_req",
        in.net ? ratio(t.request_seconds - engine_seconds, t.requests) * 1e6 : 0.0,
        "us");
  m.set("net.loop_busy_frac", in.net ? ratio(in.loop_busy_seconds, t.wall_seconds) : 0.0,
        "ratio");
  const double predict_us_per_key =
      ratio(s.d(&EngineStats::predict_seconds), s.d(&EngineStats::predictions)) * 1e6;
  const double observe_us_per_key =
      ratio(s.d(&EngineStats::observe_seconds), s.d(&EngineStats::observations)) * 1e6;
  m.set("serve.predict_us_per_key", predict_us_per_key, "us");
  m.set("serve.observe_us_per_key", observe_us_per_key, "us");
  m.set("serve.trains_per_round", ratio(s.d(&EngineStats::trains), rounds), "count");
  m.set("serve.retrains_per_round", ratio(s.d(&EngineStats::retrains), rounds), "count");
  m.set("serve.audits_per_round", ratio(s.d(&EngineStats::audits), rounds), "count");
  m.set("serve.erases_per_round", ratio(s.d(&EngineStats::erases), rounds), "count");
  const auto& rec = *in.recovery;
  m.set("serve.snapshot_max_pause_ms",
        rec.max_pause_s.empty()
            ? 0.0
            : *std::max_element(rec.max_pause_s.begin(), rec.max_pause_s.end()) * 1e3,
        "ms");

  m.set("core.predict_next_ns", tr.mean_self_ns("core.predict_next"), "ns");
  m.set("core.observe_ns", tr.mean_self_ns("core.observe"), "ns");
  m.set("core.train_us", tr.mean_self_ns("core.train") / 1e3, "us");
  m.set("core.label_us", tr.mean_self_ns("core.label") / 1e3, "us");
  m.set("selection.select_ns", tr.mean_self_ns("selection.select"), "ns");
  m.set("ml.pca_transform_ns", tr.mean_self_ns("ml.pca_transform"), "ns");
  m.set("ml.knn_classify_ns", tr.mean_self_ns("ml.knn_classify"), "ns");
  m.set("ml.pca_components", in.shadow->pca_components, "count");
  m.set("ml.pca_fit_us", tr.mean_self_ns("ml.pca_fit") / 1e3, "us");
  m.set("ml.knn_fit_us", tr.mean_self_ns("ml.knn_fit") / 1e3, "us");
  m.set("predictors.fit_all_us", tr.mean_self_ns("predictors.fit_all") / 1e3, "us");
  m.set("predictors.predict_ns", tr.mean_self_ns("predictors.predict"), "ns");
  m.set("tsdb.record_prediction_ns", tr.mean_self_ns("tsdb.record_prediction"), "ns");
  m.set("tsdb.record_observation_ns", tr.mean_self_ns("tsdb.record_observation"),
        "ns");
  m.set("tsdb.latest_resolved_us", tr.mean_self_ns("tsdb.latest_resolved") / 1e3, "us");
  m.set("tsdb.records_per_series", in.shadow->records_per_series, "count");
  m.set("qa.audit_us", tr.mean_self_ns("qa.audit") / 1e3, "us");
  m.set("qa.retrain_ratio",
        ratio(s.d(&EngineStats::retrains), s.d(&EngineStats::audits)), "ratio");

  m.set("persist.wal_bytes_per_op", ratio(in.wal_growth_bytes, in.wal_ops), "B");
  m.set("persist.wal_encode_ns_per_op",
        ratio(tr.stat("persist.wal_encode").self_ns, in.shadow->wal_ops), "ns");
  m.set("persist.wal_commit_us", tr.mean_self_ns("persist.wal_commit") / 1e3, "us");
  const double series = static_cast<double>(ctx.series);
  m.set("persist.snapshot_bytes_per_series", ratio(rec.snapshot_bytes, series), "B");
  m.set("persist.wal_tail_bytes_per_series", ratio(rec.wal_bytes, series), "B");
  const double load_s = median(rec.follower_restore_s);
  m.set("persist.snapshot_load_s", load_s, "s");
  m.set("persist.wal_replay_s", std::max(0.0, median(rec.restore_s) - load_s), "s");
  m.set("persist.wal_read_mb_per_s", rec.wal_read_mb_per_s, "MB/s");
  m.set("replication.tail_mb_per_s", rec.tail_mb_per_s, "MB/s");
  m.set("replication.apply_frames_per_s",
        ratio(rec.applied_frames, rec.apply_seconds), "frames/s");

  // Untraced vs traced rounds alternate within the one run, so both halves
  // see the same fleet age.
  const double traced_per_round = ratio(t.traced_seconds, t.traced_rounds);
  const double untraced_per_round = ratio(t.untraced_seconds, t.untraced_rounds);
  m.set("trace.overhead_frac", 1.0 - ratio(untraced_per_round, traced_per_round),
        "ratio");
  const double shadow_ns_per_step =
      ratio(in.shadow->mirrored_ns, in.shadow->series_steps);
  m.set("trace.shadow_coverage",
        ratio(shadow_ns_per_step, (predict_us_per_key + observe_us_per_key) * 1e3),
        "ratio");
  m.set("trace.shadow_match_frac", ratio(in.shadow->matched, in.shadow->compared),
        "ratio");
}

// -- workloads --------------------------------------------------------------

// setup_s is the median of this many set-ups in an untraced run: the one
// whose fleet is then served, and fresh ones after the measurements.
constexpr std::size_t kSetupRepeats = 3;

// Rounds before timing on a long-lived fleet: one audit period for the
// staggered starts, a training window, then two audit periods so QA has
// judged every series before timing starts.
std::size_t long_lived_warm_rounds(const larp::serve::EngineConfig& c) {
  return c.audit_every + c.train_samples + 2 * c.audit_every;
}

// Untimed rounds (warm-up, crash-image tails) feed the whole round in one
// call per op; only timed requests are 256-key batches.
constexpr std::size_t kUntimedBatch = std::numeric_limits<std::size_t>::max();

// A fleet warmed up on its engine, with the first timed round's input filled.
template <typename Fleet>
struct Warmed {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<PredictionEngine> engine;
  std::unique_ptr<EngineIo> io;
  std::unique_ptr<RoundDriver> driver;
  std::size_t t = 0;  // next round
  RoundTotals untimed;

  // One untimed round on the engine in process.
  void round(std::size_t train_samples) {
    fleet->fill(t, train_samples);
    driver->run(fleet->input, false, false, untimed);
    fleet->advance();
    ++t;
  }
};

template <typename Fleet>
Warmed<Fleet> warm_up(Context& ctx, std::unique_ptr<Fleet> fleet,
                      const larp::serve::EngineConfig& config,
                      std::size_t warm_rounds, bool kept) {
  Warmed<Fleet> w;
  w.fleet = std::move(fleet);
  if (kept) {
    ctx.series = w.fleet->keys().size();
    ctx.rss_baseline_mib = rss_mib();
  }
  w.engine = std::make_unique<PredictionEngine>(serve_pool(), config);
  w.io = std::make_unique<EngineIo>(*w.engine);
  w.driver = std::make_unique<RoundDriver>(*w.io, ctx.tracer, ctx.log,
                                           ctx.failures, kUntimedBatch);
  while (w.t < warm_rounds) w.round(config.train_samples);
  w.fleet->fill(w.t, config.train_samples);
  return w;
}

// Runs `setup` kSetupRepeats - 1 more times (untraced runs only), each into
// a fresh directory, and sets setup_s to the median with the kept set-up.
template <typename Setup>
void repeat_setup(Context& ctx, double first_seconds, const Setup& setup) {
  std::vector<double> seconds{first_seconds};
  const std::size_t repeats = ctx.args.trace ? 1 : kSetupRepeats;
  for (std::size_t k = 1; k < repeats; ++k) {
    const fs::path dir = ctx.args.data_dir / ("setup-" + std::to_string(k));
    const auto t0 = Clock::now();
    {
      auto extra = setup(dir, false);
      seconds.push_back(seconds_between(t0, Clock::now()));
    }
    progress(ctx, "set-up repeat");
    fs::remove_all(dir);
  }
  ctx.metrics.set("setup_s", median(seconds), "s");
}

// steady: the long-lived fleet served over loopback TCP by an in-process
// net::Server (1 event loop) in front of a 2-worker durable engine; one
// client thread drives one connection.
void run_steady(Context& ctx) {
  const auto base = serve_config(kServeWorkers);
  const std::size_t warm = long_lived_warm_rounds(base);
  const std::size_t timed = rounds_for(ctx, kSteadyRoundsPerSecond, 64);
  const RecoveryPlan rp = ctx.args.smoke
                              ? RecoveryPlan{2, 1, 4, kServeWorkers, true}
                              : RecoveryPlan{5, 2, 16, kServeWorkers, ctx.args.trace};
  const std::size_t samples =
      warm + timed + rp.repetitions * rp.rounds_between + rp.tail_rounds;
  ctx.threads = "engine_workers=2 event_loops=1 client_threads=1";

  // Members in destruction order: connection, server, then engine.
  struct Served {
    Warmed<LongLivedFleet> warmed;
    std::unique_ptr<larp::net::Server> server;
    std::unique_ptr<larp::net::Client> client;
  };
  const auto setup = [&](const fs::path& dir, bool kept) {
    auto config = base;
    config.durability = bench_durability(dir);
    Served s{warm_up(ctx, std::make_unique<LongLivedFleet>(ctx, samples, base.audit_every),
                     config, warm, kept),
             nullptr, nullptr};
    larp::net::ServerConfig server_config;
    server_config.event_threads = kEventLoops;
    s.server = std::make_unique<larp::net::Server>(*s.warmed.engine, server_config);
    s.server->start();
    s.client = std::make_unique<larp::net::Client>("127.0.0.1", s.server->port());
    return s;
  };
  const fs::path engine_dir = ctx.args.data_dir / "engine";
  Served served = setup(engine_dir, true);
  const double first_setup = seconds_between(ctx.start, Clock::now());
  progress(ctx, "setup");

  auto& w = served.warmed;
  PredictionEngine& engine = *w.engine;
  NetIo wire(*served.client);
  RoundDriver driver(wire, ctx.tracer, ctx.log, ctx.failures);
  RoundTotals totals;
  Deltas stats;
  double busy = 0.0;
  for (const auto& loop : served.server->loop_stats()) busy -= loop.busy_seconds;
  const std::uint64_t wal_before = wal_bytes(engine_dir);
  stats.before = engine.stats();
  for (std::size_t r = 0; r < timed; ++r, ++w.t) {
    if (r > 0) w.fleet->fill(w.t, base.train_samples);
    driver.run(w.fleet->input, true, ctx.args.trace && r % 2 == 1, totals);
    progress(ctx, "timed");
  }
  stats.after = engine.stats();
  const std::uint64_t wal_after = wal_bytes(engine_dir);
  for (const auto& loop : served.server->loop_stats()) busy += loop.busy_seconds;
  const double peak = peak_rss_mib();
  served.client.reset();
  served.server->stop();
  ctx.timed_rounds = totals.rounds;
  ctx.log.enabled = false;

  ctx.tracer.set_enabled(ctx.args.trace);
  const RecoveryResult rec = run_recovery(
      engine, engine_dir,
      [&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) w.round(base.train_samples);
      },
      w.fleet->keys(), rp, ctx.args.data_dir / "recovery", ctx.failures, ctx.tracer);
  ctx.tracer.set_enabled(false);
  progress(ctx, "recovery");
  serving_metrics(ctx, totals, peak);
  recovery_metrics(ctx, rec);
  if (!ctx.args.trace) {
    repeat_setup(ctx, first_setup, setup);
    return;
  }
  ctx.metrics.set("setup_s", first_setup, "s");

  const ShadowResult shadow = run_shadow(ctx.log, engine.config(), ctx.tracer,
                                         ctx.args.data_dir / "shadow-wal");
  LayerInputs in;
  in.totals = &totals;
  in.stats = stats;
  in.recovery = &rec;
  in.shadow = &shadow;
  in.wal_growth_bytes = static_cast<double>(wal_after - wal_before);
  in.wal_ops = static_cast<double>(totals.series_steps) * 2.0;
  in.net = true;
  in.loop_busy_seconds = busy;
  layer_metrics(ctx, in);
}

// churn: fleet turnover in process, no network, no durability, 1 engine
// thread (the caller runs everything inline).
void run_churn(Context& ctx) {
  const auto config = serve_config(kChurnWorkers);
  // Each series lives through training and two audit periods.
  const std::size_t lifetime = config.train_samples + 2 * config.audit_every;
  const std::size_t timed = rounds_for(ctx, kChurnRoundsPerSecond, 64);
  // The churn fleet's state is small, so each recovery op takes tens of
  // milliseconds; more repetitions keep their medians steady.
  const RecoveryPlan rp = ctx.args.smoke
                              ? RecoveryPlan{2, 1, 0, kChurnWorkers, true}
                              : RecoveryPlan{25, 2, 0, kChurnWorkers, ctx.args.trace};
  ctx.threads = "engine_workers=1 client_threads=1";

  // A full lifetime of warm-up: every slot has admitted its first series and
  // the fleet's ages are spread evenly when timing starts.
  const auto setup = [&](const fs::path&, bool kept) {
    return warm_up(ctx, std::make_unique<ChurnFleet>(ctx, lifetime), config,
                   lifetime, kept);
  };
  auto w = setup({}, true);
  const double first_setup = seconds_between(ctx.start, Clock::now());
  progress(ctx, "setup");

  PredictionEngine& engine = *w.engine;
  RoundTotals totals;
  Deltas stats;
  stats.before = engine.stats();
  RoundDriver driver(*w.io, ctx.tracer, ctx.log, ctx.failures);
  for (std::size_t r = 0; r < timed; ++r, ++w.t) {
    if (r > 0) w.fleet->fill(w.t, config.train_samples);
    driver.run(w.fleet->input, true, ctx.args.trace && r % 2 == 1, totals);
    w.fleet->advance();
    progress(ctx, "timed");
  }
  stats.after = engine.stats();
  const double peak = peak_rss_mib();
  ctx.timed_rounds = totals.rounds;
  ctx.log.enabled = false;

  ctx.tracer.set_enabled(ctx.args.trace);
  const RecoveryResult rec = run_recovery(
      engine, {},
      [&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) w.round(config.train_samples);
      },
      w.fleet->keys(), rp, ctx.args.data_dir / "recovery", ctx.failures, ctx.tracer);
  ctx.tracer.set_enabled(false);
  progress(ctx, "recovery");
  serving_metrics(ctx, totals, peak);
  recovery_metrics(ctx, rec);
  if (!ctx.args.trace) {
    repeat_setup(ctx, first_setup, setup);
    return;
  }
  ctx.metrics.set("setup_s", first_setup, "s");

  const ShadowResult shadow = run_shadow(ctx.log, config, ctx.tracer, std::nullopt);
  LayerInputs in;
  in.totals = &totals;
  in.stats = stats;
  in.recovery = &rec;
  in.shadow = &shadow;
  layer_metrics(ctx, in);
}

// recover: the long-lived fleet in process with the WAL on.  The leader
// serves timed rounds, takes snapshots and serves a tail; restores and
// follower catch-ups then run on copies of that crash image.
void run_recover(Context& ctx) {
  const auto base = serve_config(kServeWorkers);
  const std::size_t warm = long_lived_warm_rounds(base);
  const std::size_t timed = rounds_for(ctx, kRecoverRoundsPerSecond, 64);
  // Snapshots back to back after the timed rounds, then a tail of one audit
  // period: replaying it costs about as much as loading the snapshot, so
  // both show in restore_s.
  const RecoveryPlan rp = ctx.args.smoke
                              ? RecoveryPlan{2, 0, 8, kServeWorkers, true}
                              : RecoveryPlan{7, 0, base.audit_every, kServeWorkers,
                                             ctx.args.trace};
  const std::size_t samples = warm + timed + rp.tail_rounds;
  ctx.threads = "engine_workers=2 client_threads=1";

  const auto setup = [&](const fs::path& dir, bool kept) {
    auto config = base;
    config.durability = bench_durability(dir);
    return warm_up(ctx, std::make_unique<LongLivedFleet>(ctx, samples, base.audit_every),
                   config, warm, kept);
  };
  const fs::path engine_dir = ctx.args.data_dir / "engine";
  auto w = setup(engine_dir, true);
  const double first_setup = seconds_between(ctx.start, Clock::now());
  progress(ctx, "setup");

  PredictionEngine& engine = *w.engine;
  RoundTotals totals;
  Deltas stats;
  const std::uint64_t wal_before = wal_bytes(engine_dir);
  stats.before = engine.stats();
  RoundDriver driver(*w.io, ctx.tracer, ctx.log, ctx.failures);
  for (std::size_t r = 0; r < timed; ++r, ++w.t) {
    if (r > 0) w.fleet->fill(w.t, base.train_samples);
    driver.run(w.fleet->input, true, ctx.args.trace && r % 2 == 1, totals);
    progress(ctx, "timed");
  }
  stats.after = engine.stats();
  const std::uint64_t wal_after = wal_bytes(engine_dir);
  const double peak = peak_rss_mib();
  ctx.timed_rounds = totals.rounds;
  ctx.log.enabled = false;

  ctx.tracer.set_enabled(ctx.args.trace);
  const RecoveryResult rec = run_recovery(
      engine, engine_dir,
      [&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) w.round(base.train_samples);
      },
      w.fleet->keys(), rp, ctx.args.data_dir / "recovery", ctx.failures, ctx.tracer);
  ctx.tracer.set_enabled(false);
  progress(ctx, "recovery");
  serving_metrics(ctx, totals, peak);
  recovery_metrics(ctx, rec);
  if (!ctx.args.trace) {
    repeat_setup(ctx, first_setup, setup);
    return;
  }
  ctx.metrics.set("setup_s", first_setup, "s");

  const ShadowResult shadow = run_shadow(ctx.log, engine.config(), ctx.tracer,
                                         ctx.args.data_dir / "shadow-wal");
  LayerInputs in;
  in.totals = &totals;
  in.stats = stats;
  in.recovery = &rec;
  in.shadow = &shadow;
  in.wal_growth_bytes = static_cast<double>(wal_after - wal_before);
  in.wal_ops = static_cast<double>(totals.series_steps) * 2.0;
  layer_metrics(ctx, in);
}

// -- entry point ------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: larp_perfbench --workload steady|churn|recover "
               "--seed N --seconds S --data-dir DIR [--trace] [--trace-out FILE] "
               "[--smoke]\n",
               message.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") a.workload = next();
      else if (arg == "--seed") a.seed = std::stoull(next());
      else if (arg == "--seconds") a.seconds = std::stod(next());
      else if (arg == "--data-dir") a.data_dir = next();
      else if (arg == "--trace-out") a.trace_out = next();
      else if (arg == "--trace") a.trace = true;
      else if (arg == "--smoke") a.smoke = true;
      else usage("unknown option " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (a.workload != "steady" && a.workload != "churn" && a.workload != "recover") {
    usage("--workload must be steady, churn or recover");
  }
  if (a.data_dir.empty()) usage("--data-dir is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

int run(int argc, char** argv) {
  Context ctx;
  ctx.args = parse(argc, argv);
  const std::string build_type = LARP_PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool optimized = false;
#else
  const bool optimized = build_type == "Release";
#endif
  if (!optimized) {
    std::fprintf(stderr, "error: refusing to report from a %s build; build Release\n",
                 build_type.empty() ? "default" : build_type.c_str());
    return 3;
  }
  fs::remove_all(ctx.args.data_dir);
  fs::create_directories(ctx.args.data_dir);
  ctx.log.enabled = ctx.args.trace;

  std::string error;
  try {
    if (ctx.args.workload == "steady") run_steady(ctx);
    else if (ctx.args.workload == "churn") run_churn(ctx);
    else run_recover(ctx);
  } catch (const std::exception& e) {
    error = e.what();
    ctx.failures.failed = ctx.failures.attempted;
    ctx.failures.messages.push_back(std::string("run aborted: ") + e.what());
  }
  if (ctx.args.trace && !ctx.args.trace_out.empty() && error.empty()) {
    ctx.tracer.write_chrome_trace(ctx.args.trace_out);
  }
  const bool tmpfs = on_tmpfs(ctx.args.data_dir);
  fs::remove_all(ctx.args.data_dir);

  const auto& f = ctx.failures;
  std::ostringstream out;
  out << "{\"workload\": \"" << ctx.args.workload << "\", \"seed\": " << ctx.args.seed
      << ", \"seconds\": " << json_number(ctx.args.seconds)
      << ", \"trace\": " << (ctx.args.trace ? 1 : 0) << ", \"smoke\": "
      << (ctx.args.smoke ? "true" : "false")
      << ", \"correct\": " << (f.failed == 0 && error.empty() ? "true" : "false")
      << ", \"attempted\": " << f.attempted << ", \"failed\": " << f.failed
      << ", \"failed_frac\": "
      << json_number(f.attempted == 0 ? 0.0 : static_cast<double>(f.failed) /
                                                  static_cast<double>(f.attempted))
      << ", \"failures\": [";
  for (std::size_t i = 0; i < f.messages.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(f.messages[i]) << "\"";
  }
  out << "], \"series\": " << ctx.series << ", \"timed_rounds\": " << ctx.timed_rounds
      << ", \"metrics\": " << ctx.metrics.to_json() << ", \"provenance\": {"
      << "\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu_model\": \""
      << json_escape(cpu_model()) << "\", \"build_type\": \"" << build_type
      << "\", \"data_dir_tmpfs\": " << (tmpfs ? "true" : "false")
      << ", \"seed\": " << ctx.args.seed << ", \"threads\": \"" << ctx.threads
      << "\"}}";
  std::cout << out.str() << std::endl;
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
