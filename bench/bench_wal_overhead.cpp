// Durability-layer benchmark backing the PR's overhead claims:
//
//   1. WAL append overhead on the observe hot path: steady-state
//      predict+observe throughput with durability off vs. each fsync policy
//      (every_n, interval, always), in both durability modes — Sync runs the
//      policy's fdatasync inline on the serving threads, Async moves it onto
//      the background WalSyncer so the appender only pays the write(2).
//      `always` pays one inline fdatasync per batch frame in either mode and
//      is the documented worst case.
//   2. snapshot(): wall time, the longest single-shard serving pause (the
//      incremental snapshot's real cost to traffic), payload size, and
//      restore() wall time from that snapshot.
//
// Plain chrono timing like the table/figure benches (exit code 0 always;
// the numbers are the artifact).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "persist/snapshot.hpp"
#include "serve/prediction_engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace larp;
namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct Workload {
  std::vector<tsdb::SeriesKey> keys;
  std::vector<Rng> rngs;
  std::vector<double> level;
  std::vector<serve::Observation> batch;

  explicit Workload(std::size_t series)
      : keys(series), level(series, 0.0), batch(series) {
    Rng parent(2007);
    rngs.reserve(series);
    for (std::size_t s = 0; s < series; ++s) {
      keys[s] = {"host" + std::to_string(s / 8), "dev" + std::to_string(s % 8),
                 "cpu"};
      rngs.push_back(parent.split(s));
    }
  }

  void fill() {
    for (std::size_t s = 0; s < keys.size(); ++s) {
      level[s] = 0.8 * level[s] + rngs[s].normal(0.0, 2.0);
      batch[s] = {keys[s], 50.0 + level[s]};
    }
  }
};

serve::EngineConfig engine_config(
    const fs::path& data_dir, persist::FsyncPolicy policy,
    persist::DurabilityMode mode = persist::DurabilityMode::Sync) {
  serve::EngineConfig config;
  config.lar.window = 5;
  config.shards = 16;
  config.threads = 2;
  config.train_samples = 48;
  if (!data_dir.empty()) {
    config.durability.data_dir = data_dir;
    config.durability.wal.fsync = policy;
    config.durability.wal.fsync_every_n = 64;
    config.durability.wal.mode = mode;
  }
  return config;
}

/// Steady-state series-steps/sec for one durability configuration.  The
/// measured loop issues predict/observe in sub-batches of `batch_size`
/// series per call, so the WAL group size per (shard, call) scales with it —
/// batch_size == series is the original whole-fleet batch.
double observe_throughput(const fs::path& data_dir, persist::FsyncPolicy policy,
                          persist::DurabilityMode mode, std::size_t series,
                          std::size_t steps, std::size_t batch_size) {
  if (!data_dir.empty()) fs::remove_all(data_dir);
  serve::PredictionEngine engine(predictors::make_paper_pool(5),
                                 engine_config(data_dir, policy, mode));
  Workload load(series);
  const auto warmup = engine.config().train_samples;
  for (std::size_t i = 0; i < warmup; ++i) {
    load.fill();
    engine.observe(load.batch);
  }
  const std::span<const tsdb::SeriesKey> keys(load.keys);
  const std::span<const serve::Observation> batch(load.batch);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < steps; ++i) {
    for (std::size_t off = 0; off < series; off += batch_size) {
      const std::size_t n = std::min(batch_size, series - off);
      (void)engine.predict(keys.subspan(off, n));
    }
    load.fill();
    for (std::size_t off = 0; off < series; off += batch_size) {
      const std::size_t n = std::min(batch_size, series - off);
      engine.observe(batch.subspan(off, n));
    }
  }
  const double elapsed = seconds_since(start);
  if (!data_dir.empty()) fs::remove_all(data_dir);
  return static_cast<double>(series) * static_cast<double>(steps) / elapsed;
}

struct WalPoint {
  std::string name;
  double rate = 0.0;
  double overhead_pct = 0.0;  // slowdown vs. durability off
};

std::vector<WalPoint> bench_wal_overhead(const fs::path& scratch, bool quick) {
  const std::size_t series = quick ? 64 : 256;
  const std::size_t steps = quick ? 8 : 96;
  std::printf("observe-path WAL overhead (%zu series, %zu steps, 2 threads)\n",
              series, steps);
  std::printf("%16s %20s %10s\n", "durability", "series-steps/s", "overhead");

  std::vector<WalPoint> points;
  const auto run = [&](const std::string& name, const fs::path& dir,
                       persist::FsyncPolicy policy,
                       persist::DurabilityMode mode) {
    const double rate =
        observe_throughput(dir, policy, mode, series, steps, series);
    double overhead = 0.0;
    if (!points.empty()) {
      overhead = 100.0 * (points.front().rate / rate - 1.0);
    }
    points.push_back({name, rate, overhead});
    std::printf("%16s %20.0f %9.1f%%\n", name.c_str(), rate, overhead);
  };
  const auto kSync = persist::DurabilityMode::Sync;
  const auto kAsync = persist::DurabilityMode::Async;
  run("off", {}, persist::FsyncPolicy::EveryN, kSync);
  run("wal-every-64", scratch / "every_n", persist::FsyncPolicy::EveryN, kSync);
  run("wal-every-64-async", scratch / "every_n_async",
      persist::FsyncPolicy::EveryN, kAsync);
  run("wal-interval", scratch / "interval", persist::FsyncPolicy::Interval,
      kSync);
  run("wal-interval-async", scratch / "interval_async",
      persist::FsyncPolicy::Interval, kAsync);
  if (!quick) {
    run("wal-always", scratch / "always", persist::FsyncPolicy::Always, kSync);
  }
  return points;
}

struct BatchSweepPoint {
  std::size_t batch = 0;
  double off_rate = 0.0;
  double wal_rate = 0.0;
  double overhead_pct = 0.0;  // wal-every-64 slowdown vs. off at this batch
  double async_rate = 0.0;    // same policy under DurabilityMode::Async
  double async_overhead_pct = 0.0;
};

// Like observe_throughput but on a single-shard, single-thread engine, so
// every predict/observe call stages exactly `batch_size` frames into ONE
// group: the sweep axis is the WAL group size itself, not group size diluted
// across 16 shards.  Best-of-`reps` to shed scheduler noise.
double sweep_throughput(const fs::path& data_dir, persist::DurabilityMode mode,
                        std::size_t series, std::size_t steps,
                        std::size_t batch_size, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    // Let writeback from the previous measurement drain; on a small host the
    // flusher otherwise steals cycles from the durability-off points and
    // inflates their variance (observed 450k..800k series-steps/s).
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    if (!data_dir.empty()) fs::remove_all(data_dir);
    serve::EngineConfig config;
    config.lar.window = 5;
    config.shards = 1;
    config.threads = 1;
    config.train_samples = 48;
    if (!data_dir.empty()) {
      config.durability.data_dir = data_dir;
      config.durability.wal.fsync = persist::FsyncPolicy::EveryN;
      config.durability.wal.fsync_every_n = 64;
      config.durability.wal.mode = mode;
    }
    serve::PredictionEngine engine(predictors::make_paper_pool(5), config);
    Workload load(series);
    for (std::size_t i = 0; i < config.train_samples; ++i) {
      load.fill();
      engine.observe(load.batch);
    }
    const std::span<const tsdb::SeriesKey> keys(load.keys);
    const std::span<const serve::Observation> batch(load.batch);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < steps; ++i) {
      for (std::size_t off = 0; off < series; off += batch_size) {
        const std::size_t n = std::min(batch_size, series - off);
        (void)engine.predict(keys.subspan(off, n));
      }
      load.fill();
      for (std::size_t off = 0; off < series; off += batch_size) {
        const std::size_t n = std::min(batch_size, series - off);
        engine.observe(batch.subspan(off, n));
      }
    }
    const double rate = static_cast<double>(series) *
                        static_cast<double>(steps) / seconds_since(start);
    best = std::max(best, rate);
    if (!data_dir.empty()) fs::remove_all(data_dir);
  }
  return best;
}

// Group-commit payoff curve.  batch=1 is the degenerate per-frame case (one
// group of one frame per call, the pre-group-commit writer behaviour);
// batch=64 matches fsync_every_n so each group carries exactly one sync; and
// beyond that the single policy decision per group amortises the fdatasync
// itself across the whole group.
std::vector<BatchSweepPoint> bench_batch_sweep(const fs::path& scratch,
                                               bool quick) {
  const std::size_t series = quick ? 64 : 512;
  const std::size_t steps = quick ? 8 : 96;
  const int reps = quick ? 1 : 3;
  const std::vector<std::size_t> batches =
      quick ? std::vector<std::size_t>{1, 32}
            : std::vector<std::size_t>{1, 8, 32, 64, 256, 512};
  std::printf(
      "\ngroup-commit batch sweep (%zu series, %zu steps, 1 shard, every-64, "
      "best of %d)\n",
      series, steps, reps);
  std::printf("%8s %16s %16s %10s %16s %10s\n", "batch", "off/s",
              "wal-every-64/s", "overhead", "async/s", "overhead");
  std::vector<BatchSweepPoint> points;
  const auto kSync = persist::DurabilityMode::Sync;
  const auto kAsync = persist::DurabilityMode::Async;
  for (const std::size_t batch : batches) {
    BatchSweepPoint p;
    p.batch = batch;
    p.off_rate = sweep_throughput({}, kSync, series, steps, batch, reps);
    p.wal_rate = sweep_throughput(scratch / "sweep_every_n", kSync, series,
                                  steps, batch, reps);
    p.overhead_pct = 100.0 * (p.off_rate / p.wal_rate - 1.0);
    p.async_rate = sweep_throughput(scratch / "sweep_async", kAsync, series,
                                    steps, batch, reps);
    p.async_overhead_pct = 100.0 * (p.off_rate / p.async_rate - 1.0);
    std::printf("%8zu %16.0f %16.0f %9.1f%% %16.0f %9.1f%%\n", p.batch,
                p.off_rate, p.wal_rate, p.overhead_pct, p.async_rate,
                p.async_overhead_pct);
    points.push_back(p);
  }
  return points;
}

struct StorageMode {
  std::uint64_t wal_bytes = 0;  // on-disk log bytes for the whole run
  std::uint64_t frames = 0;
  std::uint64_t records = 0;            // logical ops staged
  double wal_bytes_per_frame = 0.0;
  double bytes_per_series_hour = 0.0;   // at the 5-min sample cadence
  double restore_ms = 0.0;              // WAL-only replay of the full run
  std::uint64_t snapshot_file_bytes = 0;
  std::uint64_t snapshot_raw_bytes = 0;      // v4 accounting: raw cost
  std::uint64_t snapshot_encoded_bytes = 0;  // v4 accounting: actual cost
};

// Storage efficiency of the payload codec (engine payload v4): a
// deterministic run logged with compressed block frames, then recovered from
// the WAL alone so restore_ms is dominated by replay.  bytes/series/hour
// assumes the paper's 5-minute sample cadence (12 observe+predict rounds per
// series-hour).
StorageMode bench_storage_mode(const fs::path& dir, std::size_t series,
                               std::size_t rounds) {
  fs::remove_all(dir);
  StorageMode m;
  const serve::EngineConfig config =
      engine_config(dir, persist::FsyncPolicy::EveryN);
  {
    serve::PredictionEngine engine(predictors::make_paper_pool(5), config);
    Workload load(series);
    for (std::size_t i = 0; i < rounds; ++i) {
      (void)engine.predict(load.keys);
      load.fill();
      engine.observe(load.batch);
    }
    for (const std::uint64_t pos : engine.wal_positions()) m.frames += pos;
  }  // crash: the log is the only copy of the run
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".log") {
      m.wal_bytes += entry.file_size();
    }
  }
  m.records = 2 * series * rounds;
  m.wal_bytes_per_frame =
      static_cast<double>(m.wal_bytes) / static_cast<double>(m.frames);
  m.bytes_per_series_hour = static_cast<double>(m.wal_bytes) /
                            (static_cast<double>(series) *
                             static_cast<double>(rounds)) *
                            12.0;

  const auto start = std::chrono::steady_clock::now();
  // No snapshot exists yet, so the override supplies the full identity —
  // restoring a WAL-only directory under a different shard count is refused.
  auto restored = serve::PredictionEngine::restore(
      predictors::make_paper_pool(5), dir, config);
  m.restore_ms = seconds_since(start) * 1e3;

  (void)restored->snapshot();
  restored.reset();
  for (const auto& info : persist::list_snapshots(dir)) {
    m.snapshot_file_bytes =
        std::max<std::uint64_t>(m.snapshot_file_bytes, fs::file_size(info.path));
    const auto loaded = persist::load_snapshot(info.path);
    const auto desc = serve::PredictionEngine::describe_payload(loaded.payload);
    for (std::size_t s = 0; s < desc.raw_bytes.size(); ++s) {
      m.snapshot_raw_bytes += desc.raw_bytes[s];
      m.snapshot_encoded_bytes += desc.encoded_bytes[s];
    }
  }
  fs::remove_all(dir);
  return m;
}

StorageMode bench_storage(const fs::path& scratch, bool quick) {
  const std::size_t series = quick ? 64 : 256;
  const std::size_t rounds = quick ? 64 : 240;  // 240 rounds = 20h at 5-min
  std::printf(
      "\nstorage codec (%zu series, %zu rounds, 5-min cadence, every-64)\n",
      series, rounds);
  std::printf("%12s %12s %10s %12s %16s %12s %14s\n", "payload", "wal bytes",
              "B/frame", "B/series-h", "snapshot bytes", "snap raw",
              "restore ms");
  const StorageMode m =
      bench_storage_mode(scratch / "storage", series, rounds);
  std::printf("%12s %12llu %10.1f %12.1f %16llu %12llu %14.2f\n",
              "compressed", static_cast<unsigned long long>(m.wal_bytes),
              m.wal_bytes_per_frame, m.bytes_per_series_hour,
              static_cast<unsigned long long>(m.snapshot_file_bytes),
              static_cast<unsigned long long>(m.snapshot_raw_bytes),
              m.restore_ms);
  return m;
}

struct SnapshotPoint {
  std::size_t series = 0;
  double snapshot_ms = 0.0;
  double max_shard_pause_ms = 0.0;  // longest single-shard lock hold
  double restore_ms = 0.0;
  std::uint64_t bytes = 0;
};

SnapshotPoint bench_snapshot_cycle(const fs::path& scratch, bool quick) {
  const std::size_t series = quick ? 64 : 256;
  const fs::path dir = scratch / "snapshot_cycle";
  fs::remove_all(dir);
  serve::PredictionEngine engine(
      predictors::make_paper_pool(5),
      engine_config(dir, persist::FsyncPolicy::EveryN));
  Workload load(series);
  for (std::size_t i = 0; i < engine.config().train_samples + 8; ++i) {
    load.fill();
    (void)engine.predict(load.keys);
    engine.observe(load.batch);
  }

  auto start = std::chrono::steady_clock::now();
  (void)engine.snapshot();
  const double snapshot_ms = seconds_since(start) * 1e3;
  // The serving pause is NOT the wall time above: shards are serialized one
  // at a time, so traffic only ever waits on the longest single-shard hold.
  const double pause_ms = engine.stats().snapshot_max_pause_seconds * 1e3;

  std::uint64_t bytes = 0;
  for (const auto& info : persist::list_snapshots(dir)) {
    bytes = std::max<std::uint64_t>(bytes, fs::file_size(info.path));
  }

  start = std::chrono::steady_clock::now();
  auto restored =
      serve::PredictionEngine::restore(predictors::make_paper_pool(5), dir);
  const double restore_ms = seconds_since(start) * 1e3;
  restored.reset();
  fs::remove_all(dir);

  std::printf("\nsnapshot/restore cycle (%zu trained series)\n", series);
  std::printf("  snapshot (wall time)       %8.2f ms, %llu bytes on disk\n",
              snapshot_ms, static_cast<unsigned long long>(bytes));
  std::printf("  max single-shard pause     %8.2f ms\n", pause_ms);
  std::printf("  restore (load + wal replay)%8.2f ms\n", restore_ms);
  return {series, snapshot_ms, pause_ms, restore_ms, bytes};
}

void write_json(const char* path, const std::vector<WalPoint>& wal,
                const std::vector<BatchSweepPoint>& sweep,
                const StorageMode& storage, const SnapshotPoint& snap) {
  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(out, "{\n    \"wal_observe_path\": [\n");
  for (std::size_t i = 0; i < wal.size(); ++i) {
    std::fprintf(out,
                 "      {\"mode\": \"%s\", \"series_steps_per_sec\": %.0f, "
                 "\"overhead_pct\": %.1f}%s\n",
                 wal[i].name.c_str(), wal[i].rate, wal[i].overhead_pct,
                 i + 1 < wal.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n    \"wal_batch_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(out,
                 "      {\"batch\": %zu, \"off_per_sec\": %.0f, "
                 "\"wal_every_64_per_sec\": %.0f, \"overhead_pct\": %.1f, "
                 "\"wal_async_per_sec\": %.0f, \"async_overhead_pct\": %.1f}%s\n",
                 sweep[i].batch, sweep[i].off_rate, sweep[i].wal_rate,
                 sweep[i].overhead_pct, sweep[i].async_rate,
                 sweep[i].async_overhead_pct, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out,
               "    ],\n    \"storage_codec\": [\n"
               "      {\"payload\": \"compressed\", \"wal_bytes\": %llu, "
               "\"frames\": %llu, \"records\": %llu, "
               "\"wal_bytes_per_frame\": %.1f, "
               "\"bytes_per_series_hour\": %.1f, "
               "\"snapshot_bytes\": %llu, \"snapshot_raw_bytes\": %llu, "
               "\"snapshot_encoded_bytes\": %llu, \"restore_ms\": %.2f}\n",
               static_cast<unsigned long long>(storage.wal_bytes),
               static_cast<unsigned long long>(storage.frames),
               static_cast<unsigned long long>(storage.records),
               storage.wal_bytes_per_frame, storage.bytes_per_series_hour,
               static_cast<unsigned long long>(storage.snapshot_file_bytes),
               static_cast<unsigned long long>(storage.snapshot_raw_bytes),
               static_cast<unsigned long long>(storage.snapshot_encoded_bytes),
               storage.restore_ms);
  std::fprintf(out,
               "    ],\n    \"snapshot_cycle\": {\"series\": %zu, "
               "\"snapshot_ms\": %.2f, \"snapshot_max_shard_pause_ms\": %.2f, "
               "\"restore_ms\": %.2f, \"snapshot_bytes\": %llu}\n}\n",
               snap.series, snap.snapshot_ms, snap.max_shard_pause_ms,
               snap.restore_ms, static_cast<unsigned long long>(snap.bytes));
  std::fclose(out);
  std::printf("\ndurability metrics written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // --json PATH : also emit the measurements as a JSON fragment
  // --quick     : smaller workload (CI smoke)
  const char* json_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH] [--quick]\n", argv[0]);
      return 1;
    }
  }
  const fs::path scratch =
      fs::temp_directory_path() / "larp_bench_wal_overhead";
  std::printf("================================================================\n");
  std::printf("bench_wal_overhead — snapshot + WAL durability cost\n");
  std::printf("================================================================\n\n");
  const auto wal = bench_wal_overhead(scratch, quick);
  const auto sweep = bench_batch_sweep(scratch, quick);
  const auto storage = bench_storage(scratch, quick);
  const auto snap = bench_snapshot_cycle(scratch, quick);
  fs::remove_all(scratch);
  if (json_path) write_json(json_path, wal, sweep, storage, snap);
  return 0;
}
