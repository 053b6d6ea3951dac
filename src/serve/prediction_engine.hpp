// PredictionEngine: the production serving layer over core::LarPredictor —
// thousands of concurrent (host, resource) series behind one batched API.
//
// Architecture:
//   * series are hash-partitioned into shards; each shard owns its series
//     map, one SeriesLifecycle per series, guarded by one shard mutex — so
//     two series in different shards never contend;
//   * observe(batch) / predict(batch) group the batch by shard and fan the
//     per-shard work out with a fork-join ThreadPool::parallel_for, taking
//     each shard's mutex exactly once per batch;
//   * the per-series lifecycle lives in serve/series_lifecycle.hpp, which
//     holds no lock, log or thread: a series trains itself after
//     EngineConfig::train_samples observations, keeps its newest
//     quality.audit_window resolved forecasts plus the pending one, and the
//     Quality Assuror's rule (every audit_every observations) can order a
//     re-train from the series' retained raw history (§3.2 of the paper,
//     scaled out).  The engine adds sharding, locking, the WAL, the payload
//     prefix, fan-out and replication around it;
//   * aggregate accuracy (resolved-forecast MAE/MSE), QA and latency
//     counters are maintained per shard / atomically and snapshot by
//     stats().
//
// Locking contract: LarPredictor is not internally synchronized (see
// core/lar_predictor.hpp); every touch of a predictor happens under its
// shard's mutex.  Keys within one batch are processed in batch order per
// shard, so per-series results are deterministic and independent of the
// thread count — the tests assert engine output identical to a standalone
// LarPredictor fed the same stream.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/lar_predictor.hpp"
#include "persist/io.hpp"
#include "persist/wal.hpp"
#include "persist/wal_syncer.hpp"
#include "serve/series_lifecycle.hpp"
#include "serve/wal_codec.hpp"
#include "util/thread_pool.hpp"

namespace larp::serve {

/// Durability knobs.  Durability is OFF while data_dir is empty: no WAL is
/// opened and the observe/predict hot paths stay allocation-free as before.
struct DurabilityConfig {
  /// Directory holding the snapshots and per-shard WAL segments.
  std::filesystem::path data_dir;
  /// Per-shard write-ahead-log tuning (segment size, fsync policy, and
  /// wal.mode: DurabilityMode::Sync runs the fsync policy inline on the
  /// serving threads; DurabilityMode::Async moves every EveryN/Interval
  /// fdatasync onto the engine's background WalSyncer — fsync_every_n
  /// becomes the syncer's backlog trigger and fsync_interval its deadline).
  persist::WalConfig wal;
  /// Validating snapshots retained by snapshot(); older ones are deleted.
  std::size_t keep_snapshots = 2;
};

/// Replication role.  A follower's state mutates ONLY through
/// replicate_frames() — local observe()/erase() throw StateError — so its
/// WAL is a byte-for-byte copy of the leader's and its per-shard positions
/// are directly comparable to the leader's.  Follower predict() runs the
/// read-only peek path (no kept forecast, no WAL frame) gated by
/// max_staleness.
enum class EngineRole : std::uint8_t { kLeader, kFollower };

/// Thrown by a follower's predict() when the engine has not been marked
/// caught-up (note_caught_up()) within EngineConfig::max_staleness.  The
/// network front-end answers it with a typed kStale error reply so clients
/// fail over to the leader instead of acting on possibly-wrong data.
class StaleRead : public Error {
 public:
  using Error::Error;
};

/// One WAL frame shipped from a leader, applied via replicate_frames().
/// `payload` is the engine WAL frame payload (post-seq bytes), verbatim.
struct ReplicatedFrame {
  std::uint64_t seq = 0;
  std::span<const std::byte> payload;
};

struct EngineConfig {
  core::LarConfig lar;
  qa::QaConfig quality;
  /// Hash partitions; more shards = less cross-series contention.
  std::size_t shards = 8;
  /// Parallelism of the batched calls, snapshot() and restore(): `threads`
  /// workers run the shards while the caller waits; 1 starts no worker and
  /// runs every shard on the calling thread (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Observations before a series lazily trains itself, and the number of
  /// recent samples a QA-ordered re-train uses.
  std::size_t train_samples = 144;
  /// Raw samples retained per series (clamped up to train_samples).
  std::size_t history_capacity = 288;
  /// One QA audit per series every this many observations (0 = never).
  std::size_t audit_every = 24;
  /// Snapshot + write-ahead-log durability (off by default).
  DurabilityConfig durability;
  /// Replication role (see EngineRole).  Runtime knob, never serialized.
  EngineRole role = EngineRole::kLeader;
  /// Follower read bound: predict() throws StaleRead when the last
  /// note_caught_up() is further back than this.  Zero = no bound (reads are
  /// served regardless of lag).  Ignored on a leader.
  std::chrono::milliseconds max_staleness{0};
};

/// One incoming raw sample of a series.
struct Observation {
  tsdb::SeriesKey key;
  double value = 0.0;
};

/// One engine forecast.  `ready` is false while the series is still
/// accumulating its training window (value/uncertainty are NaN then).
struct Prediction {
  bool ready = false;
  double value = std::numeric_limits<double>::quiet_NaN();
  std::size_t label = 0;
  double uncertainty = std::numeric_limits<double>::quiet_NaN();
};

/// Aggregate counters across all shards (stats() snapshot).
struct EngineStats {
  std::size_t series = 0;            // series ever observed
  std::size_t trained_series = 0;    // series past lazy training
  std::size_t observations = 0;      // samples absorbed
  std::size_t predictions = 0;       // forecasts issued
  std::size_t trains = 0;            // lazy trainings performed
  std::size_t retrains = 0;          // QA-ordered re-trains
  std::size_t audits = 0;            // QA audits run
  std::size_t erases = 0;            // series torn down via erase()
  std::size_t resolved = 0;          // forecasts resolved by an observation
  double mean_absolute_error = 0.0;  // over resolved forecasts (raw units)
  double mean_squared_error = 0.0;   // over resolved forecasts (raw units)
  double observe_seconds = 0.0;      // cumulative wall time in observe()
  double predict_seconds = 0.0;      // cumulative wall time in predict()
  std::size_t wal_unsynced_frames = 0;  // published, not yet fdatasync'd
  std::size_t wal_background_syncs = 0; // fdatasyncs issued by the WalSyncer
  std::size_t snapshots = 0;            // snapshot() calls completed
  /// Shard-mutex contention on the batched hot paths: acquisitions that did
  /// not take the lock on the first try, and the wall time spent blocked in
  /// those acquisitions.  The scaling bench reads these to name the
  /// flattener when the throughput curve goes flat.
  std::size_t contended_locks = 0;
  double lock_wait_seconds = 0.0;
  /// Longest single-shard lock hold of the most recent snapshot() — the
  /// serving pause an incremental snapshot actually causes (the engine-wide
  /// stop-the-world pause it replaced was the sum over all shards).
  double snapshot_max_pause_seconds = 0.0;
  /// Follower lag gauges (leader engines report 0 / fresh=true).
  std::size_t replicated_frames = 0;  // WAL frames applied via replication
  /// Seconds since the follower last confirmed it was caught up with the
  /// leader (note_caught_up()); infinity until the first confirmation.
  double replication_lag_seconds = 0.0;
  /// Whether predict() would currently be served (lag within max_staleness).
  bool replication_fresh = true;
};

class PredictionEngine {
 public:
  /// Takes the expert-pool prototype every series' predictor clones.
  /// Throws InvalidArgument for zero shards, an empty pool, too few
  /// train_samples, or a QaConfig qa::validate() refuses.
  PredictionEngine(predictors::PredictorPool pool_prototype,
                   EngineConfig config);

  /// Syncs any open WAL, then joins the worker pool; no batched call may be
  /// in flight.
  ~PredictionEngine();

  PredictionEngine(const PredictionEngine&) = delete;
  PredictionEngine& operator=(const PredictionEngine&) = delete;

  /// Rebuilds an engine from `dir`: the newest valid snapshot (if any) is
  /// loaded and every per-shard WAL is replayed past the snapshot's
  /// watermark, so the result continues the forecast sequence bit-for-bit
  /// where the original crashed.  Corrupt snapshots fall back to the
  /// previous valid one; a torn or corrupt WAL suffix is discarded.  The
  /// identity-defining configuration (lar, quality, shards, training
  /// cadence) always comes from the snapshot; `config_override` contributes
  /// only the runtime knobs (threads, durability tuning).  The restored
  /// engine logs onward into `dir`.
  ///
  /// Runs in two phases, each fanned out over the shards on the engine's
  /// own pool: first every shard section is decoded from the mapped
  /// snapshot (v4 sections are cut apart by the accounting table's
  /// lengths), touching no file, so a corrupt section throws CorruptData
  /// before any WAL is repaired; then every shard replays its WAL, repairs
  /// a torn tail and opens its writer.  The result does not depend on the
  /// thread count.
  static std::unique_ptr<PredictionEngine> restore(
      predictors::PredictorPool pool_prototype,
      const std::filesystem::path& dir,
      std::optional<EngineConfig> config_override = std::nullopt);

  /// Absorbs a batch of raw samples, fanned across shards.  Per series (in
  /// batch order): resolve the pending forecast, feed the predictor (or
  /// train it once train_samples have accumulated), and audit on cadence.
  /// A batch holding a NaN or infinite value throws InvalidArgument before
  /// anything is logged or applied.
  void observe(std::span<const Observation> batch);
  void observe(const tsdb::SeriesKey& key, double value);

  /// One forecast per requested key, in request order.  A series keeps its
  /// first forecast of a step until its next observation resolves it.
  [[nodiscard]] std::vector<Prediction> predict(
      std::span<const tsdb::SeriesKey> keys);
  [[nodiscard]] Prediction predict(const tsdb::SeriesKey& key);

  /// predict() into a caller-owned buffer (resized to keys.size()).  The
  /// network request path reuses one buffer per connection so steady-state
  /// serving allocates nothing here.
  void predict_into(std::span<const tsdb::SeriesKey> keys,
                    std::vector<Prediction>& out);

  /// Tears down one series: its state, predictor and kept forecasts are
  /// dropped (and the teardown is WAL-logged when durability is on).
  /// Returns false when the key was never observed.
  bool erase(const tsdb::SeriesKey& key);

  /// Writes one atomic, checksummed snapshot of the full engine state into
  /// `dir` — incrementally: each shard is serialized into its own buffer
  /// under its own mutex (flushing that shard's WAL and recording its
  /// watermark), the shards fanned out over the engine's pool, so the
  /// serving pause is bounded by the largest single shard instead of the
  /// whole engine; see EngineStats::snapshot_max_pause_seconds.  A batched
  /// call made meanwhile runs inline on its caller.  The sections are
  /// written in shard order, so the bytes do not depend on the thread
  /// count, and the combined file is still published atomically.  When
  /// `dir` is the configured data_dir, WAL segments made obsolete by the new
  /// snapshot are pruned.  Returns the snapshot's epoch.
  std::uint64_t snapshot(const std::filesystem::path& dir);
  /// snapshot() into the configured durability data_dir.
  std::uint64_t snapshot();

  /// Durability maintenance tick: applies any due Interval-policy fsync on
  /// every shard's WAL, so an idle writer's loss window stays bounded by
  /// `fsync_interval` instead of stretching until its next append.  Cheap
  /// no-op when durability is off or another policy is configured.  The
  /// engine's own WalSyncer thread drives this automatically (callers no
  /// longer need a manual tick); it stays public for tests and embedders
  /// without threads.
  void sync_wals_if_due();

  /// Cheap structural description of an engine snapshot payload (no engine
  /// construction, no predictor state parsed): payload version, per-shard
  /// WAL watermarks (v2+), and the raw-vs-encoded storage accounting the v4
  /// writer embeds — what `larp_cli inspect-snapshot` prints so compression
  /// ratios are observable in production without a bench run.  The encoded
  /// column is each shard section's exact length; a v4 payload whose
  /// lengths do not add up to its section bytes throws CorruptData.
  struct SnapshotDescription {
    std::uint32_t payload_version = 0;
    std::uint64_t shards = 0;
    std::vector<std::uint64_t> watermarks;        // empty below v2
    std::vector<std::uint64_t> raw_bytes;         // empty below v4
    std::vector<std::uint64_t> encoded_bytes;     // empty below v4
  };
  [[nodiscard]] static SnapshotDescription describe_payload(
      std::span<const std::byte> payload);

  [[nodiscard]] std::size_t series_count() const;
  [[nodiscard]] bool is_trained(const tsdb::SeriesKey& key) const;
  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }

  // -- replication ----------------------------------------------------------

  /// Follower only: applies one contiguous run of leader WAL frames to shard
  /// `shard_id`.  Frames are WAL-logged locally (when durability is on) and
  /// applied in order, exactly like the leader's own log-before-apply — so a
  /// follower's directory restores and resumes like a leader's.  Each
  /// frame's seq must equal the shard's current position; a gap or rewind
  /// throws StateError (the replication client must re-resume or
  /// re-bootstrap rather than fork the log).
  void replicate_frames(std::uint32_t shard_id,
                        std::span<const ReplicatedFrame> frames);

  /// Per-shard log positions: the next WAL seq each shard would assign
  /// (leader), or the next seq a follower expects to replicate.  Positions
  /// are comparable across a leader/follower pair because follower state
  /// mutates only through replicate_frames().
  [[nodiscard]] std::vector<std::uint64_t> wal_positions() const;

  /// Follower only: records "as of now, this engine had applied everything
  /// the leader had published" — the staleness clock predict() checks.
  /// Called by the replication client when a heartbeat confirms its applied
  /// positions cover the leader's.
  void note_caught_up();

  /// Leader only: holds WAL pruning so every shard retains frames from
  /// `positions[shard]` on, letting a connected follower resume after the
  /// next snapshot.  An empty span clears the floor (prune by snapshot
  /// watermark alone).
  void set_replication_floor(std::span<const std::uint64_t> positions);

 private:
  // Cache-line aligned so that when shards sit adjacently in memory, one
  // shard's mutex and hot counters never share a line with a neighbour's —
  // batched observe/predict takes the shard mutexes from different worker
  // threads concurrently, and false sharing there serializes the shards.
  //
  // Counter discipline: the aggregate counters below are relaxed atomics,
  // written only under the shard mutex (so snapshot sections stay
  // self-consistent) but READ lock-free — stats() folds them across shards
  // without touching any mutex, so a monitoring poll never contends with
  // the serving hot path.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unordered_map<tsdb::SeriesKey, SeriesLifecycle> series;
    // Aggregate accuracy over resolved forecasts (raw units).
    std::atomic<std::size_t> resolved{0};
    std::atomic<double> abs_error_sum{0.0};
    std::atomic<double> sq_error_sum{0.0};
    std::atomic<std::size_t> trains{0};
    std::atomic<std::size_t> retrains{0};
    std::atomic<std::size_t> erases{0};
    // Audits that had min_records to judge.
    std::atomic<std::size_t> audits{0};
    // series.size() / predictor-count mirrors, so stats() needs no lock.
    std::atomic<std::size_t> series_count{0};
    std::atomic<std::size_t> trained_count{0};
    // Traffic counters live per shard (not in engine-level atomics) so each
    // shard's snapshot section is self-consistent: an incremental snapshot
    // cuts shard s at its own watermark, and counters shared across shards
    // could not be attributed to any single cut.
    std::atomic<std::size_t> observe_count{0};
    std::atomic<std::size_t> predict_count{0};
    // Hot-path lock contention (fed by lock_shard's slow path).
    std::atomic<std::uint64_t> lock_wait_nanos{0};
    std::atomic<std::size_t> contended_locks{0};
    // Durability (engaged only when DurabilityConfig::data_dir is set).
    std::optional<persist::WalWriter> wal;
    // Compressed-payload state machine (dictionary + per-series XOR
    // chains), advanced at stage time by the write path and at decode time
    // by replay/replication; persisted in the v4 snapshot at the shard's
    // watermark cut.  Mutated only under the shard mutex.
    WalPayloadCodec codec;
    // Replication position when no WAL backs this shard (an in-memory
    // follower): next seq replicate_frames() expects.  With a WAL the
    // writer's own next_seq() is authoritative.
    std::atomic<std::uint64_t> replicated_next{0};
    // Leader-side prune floor: the lowest position any follower still needs
    // (kNoFloor = unconstrained).  Written by set_replication_floor(), read
    // by snapshot()'s pruning pass.
    std::atomic<std::uint64_t> retain_floor{~0ull};
  };

  [[nodiscard]] Shard& shard_of(const tsdb::SeriesKey& key);
  [[nodiscard]] const Shard& shard_of(const tsdb::SeriesKey& key) const;
  /// Takes the shard mutex, charging any blocked wait to the shard's
  /// contention counters (a first-try acquisition costs no clock read).
  [[nodiscard]] std::unique_lock<std::mutex> lock_shard(Shard& shard);
  /// Observe/predict bodies shared by the batched fan-out and the
  /// single-item fast path; run under the shard mutex.
  void observe_shard(Shard& shard, std::span<const Observation> batch,
                     std::span<const std::size_t> indices);
  void predict_shard(Shard& shard, std::span<const tsdb::SeriesKey> keys,
                     std::span<const std::size_t> indices,
                     std::vector<Prediction>& out);
  /// Runs one observation of the series (created on first sight) and folds
  /// its outcome into the shard counters.
  void absorb(Shard& shard, const tsdb::SeriesKey& key, double value);
  [[nodiscard]] Prediction forecast(Shard& shard, const tsdb::SeriesKey& key);
  /// Read-only forecast (SeriesLifecycle::peek) — the follower read path.
  [[nodiscard]] Prediction peek_forecast(Shard& shard,
                                         const tsdb::SeriesKey& key);
  /// Throws StaleRead when a bounded follower has not been caught up within
  /// max_staleness; no-op on leaders and unbounded followers.
  void check_freshness() const;
  bool erase_locked(Shard& shard, const tsdb::SeriesKey& key);
  /// Appends a one-op erase block to the shard's log.  Must run under the
  /// shard mutex, BEFORE the erase it describes.
  void wal_log_erase(Shard& shard, const tsdb::SeriesKey& key);
  /// Wakes the WalSyncer when this shard's backlog crossed the threshold.
  /// Called right after a commit, still under the shard mutex.
  void maybe_notify_syncer(Shard& shard);
  /// Builds and starts the maintenance thread (async syncer and/or the
  /// Sync-mode Interval idle tick); no-op when neither is needed.
  void start_syncer();
  /// Serializes one shard section (payload v4: codec table + compressed
  /// series blocks), accumulating the raw-equivalent and actual byte counts
  /// into the accounting out-params.
  void save_shard(persist::io::Writer& w, Shard& shard,
                  std::uint64_t& raw_bytes, std::uint64_t& encoded_bytes) const;
  /// Reads one shard section.  `payload_version` selects the layout: v1
  /// sections lead with the shard's WAL watermark (returned); v2 sections
  /// carry per-shard traffic counters instead and the watermark lives in
  /// the payload-level table (returns 0).
  std::uint64_t load_shard(persist::io::Reader& r, Shard& shard,
                           std::uint32_t payload_version);
  /// Decodes every shard section that follows the payload prefix `layout`
  /// describes: v4 sections in parallel, cut apart by their recorded
  /// lengths, v1-v3 sections in order.  Fills `watermarks` from the section
  /// heads of a v1 payload.
  void load_sections(persist::io::Reader& r, const SnapshotDescription& layout,
                     std::vector<std::uint64_t>& watermarks);
  /// Applies one replayed WAL frame to its shard through the shard codec,
  /// which decodes either payload format.
  void apply_wal_frame(Shard& shard, std::span<const std::byte> payload);
  /// Applies one logical operation (the body both frame formats decode to).
  void apply_op(Shard& shard, std::uint8_t type, const tsdb::SeriesKey& key,
                double value);

  /// Groups batch indices by shard and runs fn(shard_id, indices) once per
  /// shard with work, fanned out across the pool.
  template <typename KeyOf, typename Fn>
  void for_each_shard(std::size_t count, const KeyOf& key_of, const Fn& fn);
  /// Runs fn(shard_id) for every shard, fanned out across the pool.  When
  /// some throw, rethrows the lowest shard's exception — the one a walk in
  /// shard order meets first — so the error does not depend on the threads.
  template <typename Fn>
  void for_all_shards(const Fn& fn);

  predictors::PredictorPool pool_prototype_;
  EngineConfig config_;
  /// What every series reads of config_, and pool_prototype_.
  LifecycleConfig lifecycle_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ThreadPool pool_;

  std::atomic<std::uint64_t> observe_nanos_{0};
  std::atomic<std::uint64_t> predict_nanos_{0};
  std::atomic<std::uint64_t> snapshot_pause_nanos_{0};
  std::atomic<std::size_t> snapshots_{0};
  // Follower freshness clock: steady-clock nanos of the last caught-up
  // confirmation; 0 = never confirmed (stale until the first heartbeat).
  std::atomic<std::uint64_t> last_caught_up_nanos_{0};
  std::atomic<std::size_t> replicated_frames_{0};
  /// True when wal.mode == Async with a policy the syncer owns (not Always).
  bool async_wal_ = false;
  /// Declared after shards_ so it is destroyed (thread joined) before the
  /// WalWriters it points into; the destructor also resets it explicitly
  /// before the final flush.
  std::optional<persist::WalSyncer> syncer_;
};

}  // namespace larp::serve
