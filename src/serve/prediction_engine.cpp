#include "serve/prediction_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>

#include "persist/file.hpp"
#include "persist/snapshot.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace larp::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t nanos_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

std::uint64_t now_nanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// A series' forecast as the engine serves it; not ready while untrained.
Prediction ready(const std::optional<core::LarPredictor::Forecast>& f) {
  if (!f) return Prediction{};
  return Prediction{true, f->value, f->label, f->uncertainty};
}

// Engine snapshot payload version (inside the persist::snapshot container,
// which carries its own format version and checksum).
//
//   v1 — engine-global observe/predict counters after the config, then the
//        shard sections each leading with their own WAL watermark (written
//        by the old stop-the-world snapshot);
//   v2 — a shard-count-prefixed watermark table after the config (written
//        up front so restore knows every shard's replay cut before reading
//        any section), then the shard sections, each carrying its own
//        traffic counters.  Written by the incremental snapshot.
//   v3 — v2 plus the cold-start tier's fields: a tier byte, seven tuning
//        fields and a u64 fast-train threshold in the config block, and a
//        per-shard fast-train counter.  The tier is gone (DESIGN.md §10):
//        the writer keeps these slots at zero, and the reader skips them
//        but refuses a payload whose tier byte or threshold is non-zero.
//   v4 — v3 plus Gorilla-style compression (DESIGN.md §11): a per-shard
//        raw-vs-encoded byte accounting table after the watermark table,
//        and shard sections that carry the WAL payload codec state
//        (dictionary + XOR chains, cut at the shard's watermark) and
//        bit-packed series blocks — XOR-encoded history samples and
//        delta-of-delta/XOR prediction records.  Predictor internals stay
//        in their own opaque save_state() encoding.
//
// A series' prediction records are its audit window (SeriesLifecycle): at
// most quality.audit_window resolved records, then the pending forecast.
// Older writers kept every record since the series' last re-train; the
// layout is the same, and the reader keeps the newest audit_window.
//
// restore() reads all four: v1 maps its global counters onto shard 0,
// which preserves every aggregate stats() total.
constexpr std::uint32_t kEnginePayloadVersion = 4;

// The removed tier's tuning fields in the v3/v4 config block, 8 bytes each:
// four u64 (counter bits, history length, table rows, min records) and three
// f64 (perceptron rate and clip, error decay).
constexpr std::size_t kTierTuningFields = 7;

std::uint8_t checked_enum(persist::io::Reader& r, const char* what) {
  const std::uint8_t v = r.u8();
  if (v > 1) {
    throw persist::CorruptData(std::string("engine snapshot: bad ") + what);
  }
  return v;
}

// The identity-defining configuration travels in the snapshot so a restored
// engine reproduces the original's behaviour exactly; runtime knobs
// (threads, durability tuning) deliberately stay out.
void save_engine_config(persist::io::Writer& w, const EngineConfig& c) {
  const auto& l = c.lar;
  w.u64(l.window);
  w.u64(l.pca_components);
  w.f64(l.pca_min_variance);
  w.u8(l.classifier == core::ClassifierKind::NearestCentroid ? 1 : 0);
  w.u64(l.knn_k);
  w.u8(l.knn_backend == ml::KnnBackend::KdTree ? 1 : 0);
  w.u8(l.labeling == core::Labeling::WindowMse ? 1 : 0);
  w.u64(l.label_window);
  w.u64(l.uncertainty_window);
  w.boolean(l.soft_vote);
  w.boolean(l.online_learning);
  w.boolean(l.predict_in_pca_space);
  w.f64(c.quality.mse_threshold);
  w.u64(c.quality.audit_window);
  w.u64(c.quality.min_records);
  w.u64(c.shards);
  w.u64(c.train_samples);
  w.u64(c.history_capacity);
  w.u64(c.audit_every);
  // The removed tier's slots, always off: tier byte, tuning fields and
  // fast-train threshold.
  w.u8(0);
  for (std::size_t i = 0; i < kTierTuningFields; ++i) w.u64(0);
  w.u64(0);
}

void load_engine_config(persist::io::Reader& r, EngineConfig& c,
                        std::uint32_t payload_version) {
  auto& l = c.lar;
  l.window = static_cast<std::size_t>(r.u64());
  l.pca_components = static_cast<std::size_t>(r.u64());
  l.pca_min_variance = r.f64();
  l.classifier = checked_enum(r, "classifier") != 0
                     ? core::ClassifierKind::NearestCentroid
                     : core::ClassifierKind::Knn;
  l.knn_k = static_cast<std::size_t>(r.u64());
  l.knn_backend = checked_enum(r, "knn backend") != 0 ? ml::KnnBackend::KdTree
                                                      : ml::KnnBackend::BruteForce;
  l.labeling = checked_enum(r, "labeling") != 0 ? core::Labeling::WindowMse
                                                : core::Labeling::StepAbsoluteError;
  l.label_window = static_cast<std::size_t>(r.u64());
  l.uncertainty_window = static_cast<std::size_t>(r.u64());
  l.soft_vote = r.boolean();
  l.online_learning = r.boolean();
  l.predict_in_pca_space = r.boolean();
  c.quality.mse_threshold = r.f64();
  c.quality.audit_window = static_cast<std::size_t>(r.u64());
  c.quality.min_records = static_cast<std::size_t>(r.u64());
  c.shards = static_cast<std::size_t>(r.u64());
  c.train_samples = static_cast<std::size_t>(r.u64());
  c.history_capacity = static_cast<std::size_t>(r.u64());
  c.audit_every = static_cast<std::size_t>(r.u64());
  if (payload_version >= 3) {
    // A snapshot taken with the cold-start tier on would restore into an
    // engine that serves different forecasts, so it is refused.
    const std::uint8_t tier = r.u8();
    (void)r.bytes(kTierTuningFields * sizeof(std::uint64_t));
    const std::uint64_t threshold = r.u64();
    if (tier != 0 || threshold != 0) {
      throw persist::CorruptData(
          "engine snapshot: written with the cold-start selector tier on, "
          "which was removed (DESIGN.md §10)");
    }
  }
}

// Reads the payload prefix: the version, the identity config, then (v2+) the
// watermark table and (v4) the byte-accounting table, one row per shard
// each.  The accounting table's encoded column holds each shard section's
// exact length — restore() cuts the sections apart by it — so its sum must
// equal the bytes left after the tables.
PredictionEngine::SnapshotDescription read_payload_prefix(
    persist::io::Reader& r, EngineConfig& config) {
  PredictionEngine::SnapshotDescription d;
  d.payload_version = r.u32();
  if (d.payload_version == 0 || d.payload_version > kEnginePayloadVersion) {
    throw persist::CorruptData("engine snapshot: unsupported payload version " +
                               std::to_string(d.payload_version));
  }
  load_engine_config(r, config, d.payload_version);
  d.shards = config.shards;
  if (d.payload_version >= 2) {
    const auto table_shards = r.length(r.u64(), sizeof(std::uint64_t));
    if (table_shards != d.shards) {
      throw persist::CorruptData(
          "engine snapshot: watermark table size disagrees with the shard "
          "count");
    }
    for (std::uint64_t s = 0; s < table_shards; ++s) {
      d.watermarks.push_back(r.u64());
    }
  }
  if (d.payload_version >= 4) {
    const auto table_shards = r.length(r.u64(), 2 * sizeof(std::uint64_t));
    if (table_shards != d.shards) {
      throw persist::CorruptData(
          "engine snapshot: accounting table size disagrees with the shard "
          "count");
    }
    for (std::uint64_t s = 0; s < table_shards; ++s) {
      d.raw_bytes.push_back(r.u64());
      d.encoded_bytes.push_back(r.u64());
    }
    std::uint64_t sections = 0;
    for (const std::uint64_t bytes : d.encoded_bytes) {
      if (bytes > r.remaining() - sections) {
        throw persist::CorruptData(
            "engine snapshot: section lengths run past the payload");
      }
      sections += bytes;
    }
    if (sections != r.remaining()) {
      throw persist::CorruptData(
          "engine snapshot: section lengths do not cover the payload");
    }
  }
  return d;
}

}  // namespace

PredictionEngine::PredictionEngine(predictors::PredictorPool pool_prototype,
                                   EngineConfig config)
    : pool_prototype_(std::move(pool_prototype)),
      config_(config),
      pool_(config.threads) {
  if (pool_prototype_.empty()) {
    throw InvalidArgument("PredictionEngine: empty pool prototype");
  }
  if (config_.shards == 0) {
    throw InvalidArgument("PredictionEngine: need at least one shard");
  }
  if (config_.train_samples < config_.lar.window + 2) {
    throw InvalidArgument(
        "PredictionEngine: train_samples must be at least window + 2");
  }
  // Checked here rather than where it is used, so a config restored from a
  // snapshot is checked too; a zero audit window would break the ring.
  qa::validate(config_.quality);
  if (config_.history_capacity < config_.train_samples) {
    config_.history_capacity = config_.train_samples;
  }
  lifecycle_ = {&pool_prototype_, config_.lar, config_.quality,
                config_.train_samples, config_.history_capacity,
                config_.audit_every};
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (!config_.durability.data_dir.empty()) {
    persist::ensure_directory(config_.durability.data_dir);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->wal.emplace(config_.durability.data_dir,
                              static_cast<std::uint32_t>(s),
                              config_.durability.wal);
    }
    start_syncer();
  }
  LARP_LOG_INFO("serve") << "PredictionEngine: " << config_.shards
                         << " shards, " << pool_.size() << " threads, pool of "
                         << pool_prototype_.size();
}

PredictionEngine::~PredictionEngine() {
  // Join the maintenance thread first so the final flush below cannot race
  // a background sync_published() against writers being torn down.
  syncer_.reset();
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    if (shard->wal) shard->wal->sync();
  }
}

void PredictionEngine::start_syncer() {
  const persist::WalConfig& wal_cfg = config_.durability.wal;
  async_wal_ = wal_cfg.mode == persist::DurabilityMode::Async &&
               wal_cfg.fsync != persist::FsyncPolicy::Always;
  const bool idle_tick =
      !async_wal_ && wal_cfg.fsync == persist::FsyncPolicy::Interval;
  if (!async_wal_ && !idle_tick) return;
  persist::WalSyncer::Config cfg;
  cfg.backlog_frames = wal_cfg.fsync_every_n;
  cfg.deadline = wal_cfg.fsync_interval;
  cfg.clock = wal_cfg.clock;
  std::vector<persist::WalWriter*> writers;
  if (async_wal_) {
    writers.reserve(shards_.size());
    for (auto& shard : shards_) writers.push_back(&*shard->wal);
  } else {
    // Sync mode only needs the Interval idle tick folded into the same
    // maintenance thread; the writers keep syncing inline.
    cfg.tick = [this] { sync_wals_if_due(); };
  }
  syncer_.emplace(std::move(writers), std::move(cfg));
  syncer_->start();
}

void PredictionEngine::maybe_notify_syncer(Shard& shard) {
  if (!async_wal_) return;
  if (shard.wal->unsynced_appends() >= config_.durability.wal.fsync_every_n) {
    syncer_->notify();
  }
}

PredictionEngine::Shard& PredictionEngine::shard_of(const tsdb::SeriesKey& key) {
  return *shards_[std::hash<tsdb::SeriesKey>{}(key) % shards_.size()];
}

std::unique_lock<std::mutex> PredictionEngine::lock_shard(Shard& shard) {
  std::unique_lock lock(shard.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Contended: charge the blocked wait to the shard so the scaling bench
    // can tell lock contention from every other flattener.  The uncontended
    // path pays only the try_lock — no clock reads.
    const auto start = Clock::now();
    lock.lock();
    shard.lock_wait_nanos.fetch_add(nanos_since(start),
                                    std::memory_order_relaxed);
    shard.contended_locks.fetch_add(1, std::memory_order_relaxed);
  }
  return lock;
}

const PredictionEngine::Shard& PredictionEngine::shard_of(
    const tsdb::SeriesKey& key) const {
  return *shards_[std::hash<tsdb::SeriesKey>{}(key) % shards_.size()];
}

template <typename KeyOf, typename Fn>
void PredictionEngine::for_each_shard(std::size_t count, const KeyOf& key_of,
                                      const Fn& fn) {
  // Group batch indices by shard (preserving batch order within a shard),
  // then fan the non-empty shards out across the pool so each mutex is
  // taken once.
  // The grouping buffers are thread-local so steady-state batches reuse
  // their capacity instead of allocating one vector per shard per call;
  // concurrent observe()/predict() callers each get their own scratch.
  thread_local std::vector<std::vector<std::size_t>> by_shard_tls;
  thread_local std::vector<std::size_t> active_tls;
  // Bind the caller thread's instances to ordinary references: a lambda does
  // not capture thread_local storage, so naming the TLS variables inside the
  // parallel_for body would resolve to each worker's own (empty) buffers.
  auto& by_shard = by_shard_tls;
  auto& active = active_tls;
  if (by_shard.size() < shards_.size()) by_shard.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) by_shard[s].clear();
  for (std::size_t i = 0; i < count; ++i) {
    by_shard[std::hash<tsdb::SeriesKey>{}(key_of(i)) % shards_.size()]
        .push_back(i);
  }
  active.clear();
  active.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!by_shard[s].empty()) active.push_back(s);
  }
  pool_.parallel_for(0, active.size(), [&](std::size_t a) {
    fn(active[a], by_shard[active[a]]);
  });
}

template <typename Fn>
void PredictionEngine::for_all_shards(const Fn& fn) {
  std::vector<std::exception_ptr> errors(shards_.size());
  pool_.parallel_for(0, shards_.size(), [&](std::size_t s) {
    try {
      fn(s);
    } catch (...) {
      errors[s] = std::current_exception();
    }
  });
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void PredictionEngine::absorb(Shard& shard, const tsdb::SeriesKey& key,
                              double value) {
  const auto [it, inserted] = shard.series.try_emplace(key);
  if (inserted) shard.series_count.fetch_add(1, std::memory_order_relaxed);
  const SeriesLifecycle::Step step = it->second.observe(value, lifecycle_);
  if (step.resolved) {
    shard.resolved.fetch_add(1, std::memory_order_relaxed);
    shard.abs_error_sum.fetch_add(std::abs(step.error),
                                  std::memory_order_relaxed);
    shard.sq_error_sum.fetch_add(step.error * step.error,
                                 std::memory_order_relaxed);
  }
  if (step.trained) {
    shard.trains.fetch_add(1, std::memory_order_relaxed);
    shard.trained_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (step.audited) shard.audits.fetch_add(1, std::memory_order_relaxed);
  if (step.retrained) shard.retrains.fetch_add(1, std::memory_order_relaxed);
}

void PredictionEngine::observe_shard(Shard& shard,
                                     std::span<const Observation> batch,
                                     std::span<const std::size_t> indices) {
  if (shard.wal) {
    // Group commit: this (shard, batch) pair is staged as ONE block frame
    // and flushed with one write + one sync decision, before any of the
    // mutations it describes is applied — log-before-apply at group
    // granularity, op order identical to apply order.  The frame is weighted
    // by its op count so fsync policies keep counting records.
    shard.codec.begin_block(indices.size());
    for (std::size_t i : indices) {
      shard.codec.add_observe(batch[i].key, batch[i].value);
    }
    (void)shard.wal->stage(shard.codec.finish_block(), indices.size());
    shard.wal->commit();
    maybe_notify_syncer(shard);
  }
  shard.observe_count.fetch_add(indices.size(), std::memory_order_relaxed);
  for (std::size_t i : indices) {
    absorb(shard, batch[i].key, batch[i].value);
  }
}

void PredictionEngine::observe(std::span<const Observation> batch) {
  if (config_.role == EngineRole::kFollower) {
    throw StateError(
        "follower engine: observe() must reach the leader — follower state "
        "mutates only through replication");
  }
  // Checked before anything is logged: a logged op that cannot apply would
  // stop every later replay of the log at that frame.
  for (const Observation& o : batch) {
    if (!std::isfinite(o.value)) {
      throw InvalidArgument("PredictionEngine::observe: non-finite value for " +
                            o.key.to_string());
    }
  }
  const auto start = Clock::now();
  if (batch.size() == 1) {
    // Direct dispatch: a single-sample call skips the grouping pass and the
    // thread-pool handoff entirely — one hash, one lock, one absorb.
    static constexpr std::size_t kZero[] = {0};
    Shard& shard = shard_of(batch[0].key);
    const auto lock = lock_shard(shard);
    observe_shard(shard, batch, kZero);
  } else {
    for_each_shard(
        batch.size(), [&](std::size_t i) -> const tsdb::SeriesKey& {
          return batch[i].key;
        },
        [&](std::size_t s, const std::vector<std::size_t>& indices) {
          Shard& shard = *shards_[s];
          const auto lock = lock_shard(shard);
          observe_shard(shard, batch, indices);
        });
  }
  observe_nanos_.fetch_add(nanos_since(start), std::memory_order_relaxed);
}

void PredictionEngine::observe(const tsdb::SeriesKey& key, double value) {
  const Observation one{key, value};
  observe(std::span<const Observation>(&one, 1));
}

Prediction PredictionEngine::peek_forecast(Shard& shard,
                                           const tsdb::SeriesKey& key) {
  const auto it = shard.series.find(key);
  if (it == shard.series.end()) return Prediction{};
  return ready(it->second.peek());
}

Prediction PredictionEngine::forecast(Shard& shard,
                                      const tsdb::SeriesKey& key) {
  const auto it = shard.series.find(key);
  if (it == shard.series.end()) return Prediction{};
  return ready(it->second.forecast());
}

std::vector<Prediction> PredictionEngine::predict(
    std::span<const tsdb::SeriesKey> keys) {
  std::vector<Prediction> out;
  predict_into(keys, out);
  return out;
}

void PredictionEngine::predict_shard(Shard& shard,
                                     std::span<const tsdb::SeriesKey> keys,
                                     std::span<const std::size_t> indices,
                                     std::vector<Prediction>& out) {
  if (config_.role == EngineRole::kFollower) {
    // Follower reads are side-effect free: no WAL frame (the follower's log
    // must stay a byte copy of the leader's) and no kept forecast or
    // pending-forecast update (those replicate in via the leader's own
    // kWalPredict frames).
    shard.predict_count.fetch_add(indices.size(), std::memory_order_relaxed);
    for (std::size_t i : indices) {
      out[i] = peek_forecast(shard, keys[i]);
    }
    return;
  }
  if (shard.wal) {
    // Logged even for untrained series (where forecast() is a no-op):
    // replay must reproduce the exact call sequence, and whether a key
    // is trained at this point is itself a function of that sequence.
    // Staged and committed as one block, like observe().
    shard.codec.begin_block(indices.size());
    for (std::size_t i : indices) shard.codec.add_predict(keys[i]);
    (void)shard.wal->stage(shard.codec.finish_block(), indices.size());
    shard.wal->commit();
    maybe_notify_syncer(shard);
  }
  shard.predict_count.fetch_add(indices.size(), std::memory_order_relaxed);
  for (std::size_t i : indices) {
    out[i] = forecast(shard, keys[i]);
  }
}

void PredictionEngine::predict_into(std::span<const tsdb::SeriesKey> keys,
                                    std::vector<Prediction>& out) {
  check_freshness();
  const auto start = Clock::now();
  out.resize(keys.size());
  if (keys.size() == 1) {
    // Direct dispatch (see observe()): one hash, one lock, one forecast.
    static constexpr std::size_t kZero[] = {0};
    Shard& shard = shard_of(keys[0]);
    const auto lock = lock_shard(shard);
    predict_shard(shard, keys, kZero, out);
  } else {
    for_each_shard(
        keys.size(),
        [&](std::size_t i) -> const tsdb::SeriesKey& { return keys[i]; },
        [&](std::size_t s, const std::vector<std::size_t>& indices) {
          Shard& shard = *shards_[s];
          const auto lock = lock_shard(shard);
          predict_shard(shard, keys, indices, out);
        });
  }
  predict_nanos_.fetch_add(nanos_since(start), std::memory_order_relaxed);
}

Prediction PredictionEngine::predict(const tsdb::SeriesKey& key) {
  return predict(std::span<const tsdb::SeriesKey>(&key, 1)).front();
}

bool PredictionEngine::erase(const tsdb::SeriesKey& key) {
  if (config_.role == EngineRole::kFollower) {
    throw StateError(
        "follower engine: erase() must reach the leader — follower state "
        "mutates only through replication");
  }
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mutex);
  wal_log_erase(shard, key);
  return erase_locked(shard, key);
}

bool PredictionEngine::erase_locked(Shard& shard, const tsdb::SeriesKey& key) {
  const auto it = shard.series.find(key);
  const bool removed = it != shard.series.end();
  if (removed) {
    if (it->second.trained()) {
      shard.trained_count.fetch_sub(1, std::memory_order_relaxed);
    }
    shard.series.erase(it);
    shard.series_count.fetch_sub(1, std::memory_order_relaxed);
    shard.erases.fetch_add(1, std::memory_order_relaxed);
  }
  return removed;
}

void PredictionEngine::wal_log_erase(Shard& shard, const tsdb::SeriesKey& key) {
  if (!shard.wal) return;
  shard.codec.begin_block(1);
  shard.codec.add_erase(key);
  (void)shard.wal->stage(shard.codec.finish_block(), 1);
  shard.wal->commit();
  maybe_notify_syncer(shard);
}

void PredictionEngine::sync_wals_if_due() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    if (shard->wal) (void)shard->wal->sync_if_due();
  }
}

void PredictionEngine::check_freshness() const {
  if (config_.role != EngineRole::kFollower) return;
  if (config_.max_staleness.count() <= 0) return;
  const std::uint64_t last =
      last_caught_up_nanos_.load(std::memory_order_relaxed);
  const auto bound = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          config_.max_staleness)
          .count());
  if (last == 0 || now_nanos() - last > bound) {
    throw StaleRead(
        "follower predict: replication lag exceeds max_staleness");
  }
}

void PredictionEngine::replicate_frames(
    std::uint32_t shard_id, std::span<const ReplicatedFrame> frames) {
  if (config_.role != EngineRole::kFollower) {
    throw StateError("replicate_frames: engine is not a follower");
  }
  if (shard_id >= shards_.size()) {
    throw InvalidArgument("replicate_frames: shard id out of range");
  }
  if (frames.empty()) return;
  Shard& shard = *shards_[shard_id];
  const auto lock = lock_shard(shard);
  // Verify contiguity against the shard's position before any byte is
  // logged: a gap or rewind means the stream and this engine disagree about
  // history, and appending would fork the log.
  std::uint64_t expect =
      shard.wal ? shard.wal->next_seq()
                : shard.replicated_next.load(std::memory_order_relaxed);
  for (const auto& frame : frames) {
    if (frame.seq != expect) {
      throw StateError("replicate_frames: shard " + std::to_string(shard_id) +
                       " expected seq " + std::to_string(expect) + ", got " +
                       std::to_string(frame.seq));
    }
    ++expect;
  }
  if (shard.wal) {
    // Same log-before-apply group commit as the leader's own write path, so
    // a follower's directory recovers with the identical replay machinery.
    // Frames are staged at their true record weight (a compressed block
    // carries a whole batch) so the follower's sync backlog counts records
    // exactly like the leader's.
    for (const auto& frame : frames) {
      (void)shard.wal->stage(frame.payload,
                             WalPayloadCodec::payload_weight(frame.payload));
    }
    shard.wal->commit();
    maybe_notify_syncer(shard);
  }
  for (const auto& frame : frames) apply_wal_frame(shard, frame.payload);
  shard.replicated_next.store(expect, std::memory_order_relaxed);
  replicated_frames_.fetch_add(frames.size(), std::memory_order_relaxed);
}

std::vector<std::uint64_t> PredictionEngine::wal_positions() const {
  std::vector<std::uint64_t> positions(shards_.size(), 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    std::lock_guard lock(shard.mutex);
    positions[s] =
        shard.wal ? shard.wal->next_seq()
                  : shard.replicated_next.load(std::memory_order_relaxed);
  }
  return positions;
}

void PredictionEngine::note_caught_up() {
  last_caught_up_nanos_.store(now_nanos(), std::memory_order_relaxed);
}

void PredictionEngine::set_replication_floor(
    std::span<const std::uint64_t> positions) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->retain_floor.store(
        s < positions.size() ? positions[s] : ~0ull,
        std::memory_order_relaxed);
  }
}

void PredictionEngine::save_shard(persist::io::Writer& w, Shard& shard,
                                  std::uint64_t& raw_bytes,
                                  std::uint64_t& encoded_bytes) const {
  // Accounting: `compressed.raw` totals the bytes the compressed fields
  // would have cost in the raw v3 encoding; `compressed.encoded` totals what
  // their v4 representation (codec table included) actually costs.  The
  // rest of the section is identical in both layouts, so
  //   raw    = actual - compressed.encoded + compressed.raw
  //   actual = section bytes as written.
  const std::size_t section_start = w.size();
  SnapshotBytes compressed;
  persist::codec::BlockWriter block;

  w.u64(shard.observe_count.load(std::memory_order_relaxed));
  w.u64(shard.predict_count.load(std::memory_order_relaxed));
  w.u64(shard.resolved.load(std::memory_order_relaxed));
  w.f64(shard.abs_error_sum.load(std::memory_order_relaxed));
  w.f64(shard.sq_error_sum.load(std::memory_order_relaxed));
  w.u64(shard.trains.load(std::memory_order_relaxed));
  w.u64(0);  // the removed tier's fast-train counter
  w.u64(shard.retrains.load(std::memory_order_relaxed));
  w.u64(shard.erases.load(std::memory_order_relaxed));
  // The layout's two QA counters, audits judged and re-trains ordered:
  // `audits` is the first, and the second equals `retrains` because every
  // ordered re-train runs at once.
  w.u64(shard.audits.load(std::memory_order_relaxed));
  w.u64(shard.retrains.load(std::memory_order_relaxed));

  // v4: the WAL payload codec state at this shard's watermark cut — pure
  // overhead relative to v3, charged to the compressed side.
  {
    const std::size_t at = w.size();
    shard.codec.save(w);
    compressed.encoded += w.size() - at;
  }

  w.u64(shard.series.size());
  for (const auto& [key, series] : shard.series) {
    w.str(key.vm_id);
    w.str(key.device_id);
    w.str(key.metric);
    series.save(w, block, compressed);
  }

  const std::uint64_t actual = w.size() - section_start;
  encoded_bytes += actual;
  raw_bytes += actual - compressed.encoded + compressed.raw;
}

std::uint64_t PredictionEngine::load_shard(persist::io::Reader& r, Shard& shard,
                                           std::uint32_t payload_version) {
  std::uint64_t watermark = 0;
  if (payload_version == 1) {
    watermark = r.u64();
  } else {
    shard.observe_count.store(static_cast<std::size_t>(r.u64()),
                              std::memory_order_relaxed);
    shard.predict_count.store(static_cast<std::size_t>(r.u64()),
                              std::memory_order_relaxed);
  }
  shard.resolved.store(static_cast<std::size_t>(r.u64()),
                       std::memory_order_relaxed);
  shard.abs_error_sum.store(r.f64(), std::memory_order_relaxed);
  shard.sq_error_sum.store(r.f64(), std::memory_order_relaxed);
  shard.trains.store(static_cast<std::size_t>(r.u64()),
                     std::memory_order_relaxed);
  if (payload_version >= 3) (void)r.u64();  // the removed tier's counter
  shard.retrains.store(static_cast<std::size_t>(r.u64()),
                       std::memory_order_relaxed);
  shard.erases.store(static_cast<std::size_t>(r.u64()),
                     std::memory_order_relaxed);
  shard.audits.store(static_cast<std::size_t>(r.u64()),
                     std::memory_order_relaxed);
  (void)r.u64();  // re-trains ordered, a copy of `retrains` (see save_shard)
  if (payload_version >= 4) {
    shard.codec.load(r);
  }
  const auto series_count =
      static_cast<std::size_t>(r.length(r.u64(), sizeof(std::uint64_t)));
  for (std::size_t i = 0; i < series_count; ++i) {
    const auto [it, inserted] =
        shard.series.try_emplace(tsdb::SeriesKey{r.str(), r.str(), r.str()});
    if (!inserted) {
      throw persist::CorruptData("engine snapshot: series " +
                                 it->first.to_string() + " listed twice");
    }
    it->second.load(r, payload_version, lifecycle_);
  }
  // Re-seed the lock-free stats() mirrors from the restored series map.
  std::size_t trained = 0;
  for (const auto& [key, series] : shard.series) {
    if (series.trained()) ++trained;
  }
  shard.series_count.store(shard.series.size(), std::memory_order_relaxed);
  shard.trained_count.store(trained, std::memory_order_relaxed);
  return watermark;
}

std::uint64_t PredictionEngine::snapshot(const std::filesystem::path& dir) {
  // Incremental, not stop-the-world: each shard is serialized into its own
  // section buffer under its OWN mutex, the shards fanned out over the pool,
  // so concurrent observe/predict traffic only ever waits for a shard that
  // is being copied.  Consistency holds per shard, not engine-wide: each
  // section flushes its shard's WAL and records that shard's watermark (the
  // log must be durable up to the cut BEFORE the snapshot can claim it),
  // and restore() replays each shard's WAL from its own watermark — shard
  // state and replay cut always agree even though the sections were taken
  // at different instants.
  const std::size_t count = shards_.size();
  std::vector<persist::io::Writer> sections(count);
  std::vector<std::uint64_t> watermarks(count, 0);
  std::vector<std::uint64_t> raw_bytes(count, 0);
  std::vector<std::uint64_t> encoded_bytes(count, 0);
  std::vector<std::uint64_t> pause_nanos(count, 0);
  for_all_shards([&](std::size_t s) {
    Shard& shard = *shards_[s];
    const auto locked_at = Clock::now();
    std::lock_guard lock(shard.mutex);
    if (shard.wal) {
      watermarks[s] = shard.wal->flush();
    }
    save_shard(sections[s], shard, raw_bytes[s], encoded_bytes[s]);
    pause_nanos[s] = nanos_since(locked_at);
  });

  // The published payload is the prefix, then the sections in shard order.
  // The watermark table travels up front (restore must know every shard's
  // replay cut before the sections), and the v4 byte-accounting table
  // follows it: what each section would have cost raw vs what it actually
  // cost, the latter being the section's exact length, by which restore()
  // cuts the sections apart.
  persist::io::Writer prefix;
  prefix.u32(kEnginePayloadVersion);
  save_engine_config(prefix, config_);
  prefix.u64(count);
  for (std::uint64_t watermark : watermarks) prefix.u64(watermark);
  prefix.u64(count);
  for (std::size_t s = 0; s < count; ++s) {
    prefix.u64(raw_bytes[s]);
    prefix.u64(encoded_bytes[s]);
  }
  std::vector<std::span<const std::byte>> pieces;
  pieces.reserve(count + 1);
  pieces.push_back(prefix.bytes());
  for (const auto& section : sections) pieces.push_back(section.bytes());

  const auto existing = persist::list_snapshots(dir);
  const std::uint64_t epoch = existing.empty() ? 1 : existing.back().epoch + 1;
  persist::publish_snapshot_pieces(dir, epoch, pieces);
  persist::retain_snapshots(
      dir, std::max<std::size_t>(1, config_.durability.keep_snapshots));
  if (dir == config_.durability.data_dir) {
    // Frames below the watermark are now covered by this snapshot on every
    // recovery path, so whole segments beneath it can go — except frames a
    // connected replication follower still needs (retain_floor holds the
    // lowest position any follower has yet to acknowledge).
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      std::lock_guard lock(shard.mutex);
      if (shard.wal) {
        shard.wal->prune_below(std::min(
            watermarks[s],
            shard.retain_floor.load(std::memory_order_relaxed)));
      }
    }
  }
  snapshot_pause_nanos_.store(
      *std::max_element(pause_nanos.begin(), pause_nanos.end()),
      std::memory_order_relaxed);
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  return epoch;
}

std::uint64_t PredictionEngine::snapshot() {
  if (config_.durability.data_dir.empty()) {
    throw StateError("PredictionEngine::snapshot: durability is not configured");
  }
  return snapshot(config_.durability.data_dir);
}

void PredictionEngine::apply_wal_frame(Shard& shard,
                                       std::span<const std::byte> payload) {
  shard.codec.decode(payload, [&](const WalOp& op) {
    apply_op(shard, op.type, *op.key, op.value);
  });
}

void PredictionEngine::apply_op(Shard& shard, std::uint8_t type,
                                const tsdb::SeriesKey& key, double value) {
  switch (type) {
    case kWalObserve:
      shard.observe_count.fetch_add(1, std::memory_order_relaxed);
      absorb(shard, key, value);
      break;
    case kWalPredict:
      shard.predict_count.fetch_add(1, std::memory_order_relaxed);
      (void)forecast(shard, key);
      break;
    case kWalErase:
      (void)erase_locked(shard, key);
      break;
    default:
      throw persist::CorruptData("wal frame: unknown type " +
                                 std::to_string(type));
  }
}

void PredictionEngine::load_sections(persist::io::Reader& r,
                                     const SnapshotDescription& layout,
                                     std::vector<std::uint64_t>& watermarks) {
  const std::uint32_t version = layout.payload_version;
  if (version >= 4) {
    // The accounting table gives every section's length (checked against
    // the payload by read_payload_prefix), so the shards decode in
    // parallel, each of its own bytes, and each must end exactly there.
    std::vector<std::span<const std::byte>> sections;
    sections.reserve(shards_.size());
    for (const std::uint64_t bytes : layout.encoded_bytes) {
      sections.push_back(r.bytes(static_cast<std::size_t>(bytes)));
    }
    for_all_shards([&](std::size_t s) {
      persist::io::Reader section(sections[s]);
      (void)load_shard(section, *shards_[s], version);
      if (!section.exhausted()) {
        throw persist::CorruptData("engine snapshot: shard " +
                                   std::to_string(s) +
                                   " section ends before its recorded length");
      }
    });
    return;
  }
  // v1-v3 record no section lengths: walk the sections in order.
  if (version == 1) {
    // v1 compat: the engine-global traffic counters land on shard 0, so
    // every stats() aggregate a v1 snapshot recorded is preserved; the
    // per-shard watermarks come from the section heads below.
    shards_[0]->observe_count.store(static_cast<std::size_t>(r.u64()),
                                    std::memory_order_relaxed);
    shards_[0]->predict_count.store(static_cast<std::size_t>(r.u64()),
                                    std::memory_order_relaxed);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::uint64_t v1_mark = load_shard(r, *shards_[s], version);
    if (version == 1) watermarks[s] = v1_mark;
  }
}

std::unique_ptr<PredictionEngine> PredictionEngine::restore(
    predictors::PredictorPool pool_prototype, const std::filesystem::path& dir,
    std::optional<EngineConfig> config_override) {
  const auto loaded = persist::load_newest_valid(dir);

  EngineConfig config = config_override.value_or(EngineConfig{});
  std::optional<persist::io::Reader> reader;
  SnapshotDescription layout;
  if (loaded) {
    reader.emplace(loaded->payload);
    // Identity-defining fields come from the snapshot; the override only
    // contributes runtime knobs (threads + durability tuning, read below).
    layout = read_payload_prefix(*reader, config);
  }
  DurabilityConfig durability = config.durability;
  durability.data_dir = dir;

  // Boot with durability off: the WAL writers open only after replay, at the
  // sequence position recovery establishes.
  EngineConfig boot = config;
  boot.durability = DurabilityConfig{};
  auto engine = std::make_unique<PredictionEngine>(std::move(pool_prototype),
                                                   std::move(boot));

  // Two phases, each fanned out over the shards.  Phase 1 decodes the
  // snapshot sections and touches no file, so a corrupt section fails the
  // restore before any WAL is repaired.
  std::vector<std::uint64_t> watermarks(engine->shards_.size(), 0);
  if (loaded) {
    if (!layout.watermarks.empty()) watermarks = layout.watermarks;
    engine->load_sections(*reader, layout, watermarks);
  }

  persist::ensure_directory(dir);
  // The shard count is identity-defining but a WAL-only directory cannot
  // carry it (it travels in the snapshot).  Replaying under a different
  // count would silently strand every frame in the orphaned logs — or
  // scatter series across a different hash partition — so refuse loudly
  // before touching anything.  Shard logs are contiguous from 0: every
  // shard opens its segment file the moment the engine boots.
  std::size_t wal_shards = 0;
  while (!persist::list_wal_segments(
              dir, static_cast<std::uint32_t>(wal_shards))
              .empty()) {
    ++wal_shards;
  }
  if (wal_shards != 0 && wal_shards != engine->shards_.size()) {
    throw persist::CorruptData(
        "engine restore: directory holds WAL logs for " +
        std::to_string(wal_shards) + " shards but the engine is configured "
        "with " + std::to_string(engine->shards_.size()) +
        " — pass the EngineConfig the logs were written under");
  }
  // Phase 2: each shard replays its own WAL past its watermark, repairs a
  // torn tail, and opens its writer.
  engine->for_all_shards([&](std::size_t s) {
    Shard& shard = *engine->shards_[s];
    const auto id = static_cast<std::uint32_t>(s);
    std::lock_guard lock(shard.mutex);
    const auto report = persist::replay_wal(
        dir, id, watermarks[s], [&](const persist::WalFrame& frame) {
          engine->apply_wal_frame(shard, frame.payload);
        });
    // The writer resumes after the last frame actually applied; max() covers
    // a log that lags the snapshot (e.g. segments pruned or lost wholesale).
    const std::uint64_t next = std::max(watermarks[s], report.next_seq);
    if (report.truncated_tail) {
      // A torn or corrupt suffix was skipped — physically discard it so the
      // on-disk log agrees with the state we restored.
      persist::repair_wal(dir, id, next);
    }
    shard.wal.emplace(dir, id, durability.wal, next);
  });
  engine->config_.durability = std::move(durability);
  engine->start_syncer();
  LARP_LOG_INFO("serve") << "PredictionEngine: restored from " << dir.string()
                         << (loaded ? " (snapshot epoch " +
                                          std::to_string(loaded->epoch) + ")"
                                    : " (no snapshot, WAL only)");
  return engine;
}

PredictionEngine::SnapshotDescription PredictionEngine::describe_payload(
    std::span<const std::byte> payload) {
  persist::io::Reader r{payload};
  EngineConfig config;
  return read_payload_prefix(r, config);
}

std::size_t PredictionEngine::series_count() const {
  std::size_t count = 0;
  for (const auto& shard : shards_) {
    count += shard->series_count.load(std::memory_order_relaxed);
  }
  return count;
}

bool PredictionEngine::is_trained(const tsdb::SeriesKey& key) const {
  const Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.series.find(key);
  return it != shard.series.end() && it->second.trained();
}

EngineStats PredictionEngine::stats() const {
  // Lock-free by design: every addend below is either a relaxed atomic
  // mirror maintained under the shard mutex or an internally-synchronized
  // WAL watermark read, so a monitoring poll never blocks (or is blocked
  // by) the serving hot path.
  EngineStats stats;
  std::uint64_t lock_wait_nanos = 0;
  for (const auto& shard : shards_) {
    stats.series += shard->series_count.load(std::memory_order_relaxed);
    stats.trained_series +=
        shard->trained_count.load(std::memory_order_relaxed);
    stats.trains += shard->trains.load(std::memory_order_relaxed);
    stats.retrains += shard->retrains.load(std::memory_order_relaxed);
    stats.erases += shard->erases.load(std::memory_order_relaxed);
    stats.audits += shard->audits.load(std::memory_order_relaxed);
    stats.resolved += shard->resolved.load(std::memory_order_relaxed);
    stats.mean_absolute_error +=
        shard->abs_error_sum.load(std::memory_order_relaxed);
    stats.mean_squared_error +=
        shard->sq_error_sum.load(std::memory_order_relaxed);
    stats.observations += shard->observe_count.load(std::memory_order_relaxed);
    stats.predictions += shard->predict_count.load(std::memory_order_relaxed);
    stats.contended_locks +=
        shard->contended_locks.load(std::memory_order_relaxed);
    lock_wait_nanos += shard->lock_wait_nanos.load(std::memory_order_relaxed);
    if (shard->wal) stats.wal_unsynced_frames += shard->wal->unsynced_appends();
  }
  stats.lock_wait_seconds = static_cast<double>(lock_wait_nanos) * 1e-9;
  if (stats.resolved > 0) {
    stats.mean_absolute_error /= static_cast<double>(stats.resolved);
    stats.mean_squared_error /= static_cast<double>(stats.resolved);
  }
  stats.observe_seconds =
      static_cast<double>(observe_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  stats.predict_seconds =
      static_cast<double>(predict_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  stats.wal_background_syncs = syncer_ ? syncer_->syncs_performed() : 0;
  stats.snapshots = snapshots_.load(std::memory_order_relaxed);
  stats.snapshot_max_pause_seconds =
      static_cast<double>(snapshot_pause_nanos_.load(std::memory_order_relaxed)) *
      1e-9;
  stats.replicated_frames =
      replicated_frames_.load(std::memory_order_relaxed);
  if (config_.role == EngineRole::kFollower) {
    const std::uint64_t last =
        last_caught_up_nanos_.load(std::memory_order_relaxed);
    stats.replication_lag_seconds =
        last == 0 ? std::numeric_limits<double>::infinity()
                  : static_cast<double>(now_nanos() - last) * 1e-9;
    const double bound =
        static_cast<double>(config_.max_staleness.count()) * 1e-3;
    stats.replication_fresh =
        config_.max_staleness.count() <= 0 ||
        stats.replication_lag_seconds <= bound;
  }
  return stats;
}

}  // namespace larp::serve
