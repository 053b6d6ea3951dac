// SeriesLifecycle: everything one served series does, with no lock, log,
// WAL codec or thread — the unit PredictionEngine keeps one of per series
// and drives under its shard mutex.
//
// A series accumulates raw samples and trains its LarPredictor lazily once
// `train_samples` have arrived.  Each forecast the leader issues waits for
// the next observation to resolve it; every `audit_every` observations the
// Quality Assuror's rule (§3.2, qa::judge) reads the newest `audit_window`
// resolved forecasts and may order a re-train from the retained history.
//
// The audit window is exact, not an approximation of a larger store.  A
// forecast is kept only for the next step (`next_ts`), and the next
// observation resolves it before the clock moves, so at most one kept
// forecast is unresolved: the pending one.  The series therefore keeps just
// that one plus a ring of its newest `audit_window` resolved forecasts — the
// set the audit reads — and a re-train empties both, so the next audit
// judges the re-trained predictor alone.  The ring grows on demand, because
// audit_window comes from the snapshot (outside input) and a series that
// re-trains often never fills it.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/lar_predictor.hpp"
#include "persist/codec.hpp"
#include "persist/io.hpp"
#include "qa/quality_assuror.hpp"

namespace larp::serve {

/// The settings every series of one engine shares: the EngineConfig fields
/// the lifecycle reads, and the pool prototype each predictor clones.
struct LifecycleConfig {
  const predictors::PredictorPool* pool = nullptr;
  core::LarConfig lar;
  qa::QaConfig quality;
  std::size_t train_samples = 0;
  std::size_t history_capacity = 0;
  std::size_t audit_every = 0;
};

/// Snapshot byte accounting of the fields payload v4 compresses: what they
/// cost as written, and what they would have cost in the raw v3 layout.
struct SnapshotBytes {
  std::uint64_t encoded = 0;
  std::uint64_t raw = 0;
};

class SeriesLifecycle {
 public:
  /// What one observation did, folded into the engine's shard counters.
  struct Step {
    bool resolved = false;   // the pending forecast was resolved,
    double error = 0.0;      // with this error (forecast - observation)
    bool trained = false;    // the first, lazy training ran
    bool audited = false;    // an audit had min_records to judge
    bool retrained = false;  // the audit ordered a re-train, which ran
  };

  /// Resolves the pending forecast and feeds the predictor, appends the
  /// sample to the history, then trains once train_samples have arrived or
  /// audits on cadence.  `value` must be finite.
  Step observe(double value, const LifecycleConfig& config);

  /// The forecast for the next step; nullopt while untrained.  The first
  /// forecast of a step is the one kept for the audit.
  [[nodiscard]] std::optional<core::LarPredictor::Forecast> forecast();

  /// The next step's forecast with no side effect (LarPredictor::peek_next):
  /// nothing is kept and the predictor's pending forecast does not move.
  [[nodiscard]] std::optional<core::LarPredictor::Forecast> peek();

  [[nodiscard]] bool trained() const noexcept { return predictor_.has_value(); }

  /// The kept forecasts, oldest first: the resolved ones in the ring, then
  /// the pending one (unresolved, at the next step) if any.
  [[nodiscard]] std::vector<std::pair<Timestamp, tsdb::PredictionRecord>>
  records() const;

  /// Appends this series' snapshot block in the payload v4 layout: the
  /// history, clock and audit cadence, the predictor state, and the kept
  /// forecasts.  `block` is scratch reused across series.
  void save(persist::io::Writer& w, persist::codec::BlockWriter& block,
            SnapshotBytes& bytes) const;
  /// Reads a block written in payload `version` (1-4) into a fresh series.
  /// A resolved record joins the ring, which keeps the newest audit_window;
  /// an unresolved one at the next step is the pending forecast, and any
  /// other unresolved record is dropped, as no audit would ever read it.
  void load(persist::io::Reader& r, std::uint32_t version,
            const LifecycleConfig& config);

 private:
  struct Resolved {
    Timestamp ts = 0;
    double predicted = 0.0;
    double observed = 0.0;
    std::size_t label = 0;
  };
  struct Pending {
    double predicted = 0.0;
    std::size_t label = 0;
  };

  void train(const LifecycleConfig& config, bool is_retrain);
  /// Adds a resolved forecast to the ring, dropping the oldest when full.
  void keep(const Resolved& record, std::size_t audit_window);
  /// The ring, oldest first.
  template <typename Fn>
  void for_each_resolved(const Fn& fn) const;

  std::deque<double> history_;  // recent raw samples, history_capacity-bounded
  std::optional<core::LarPredictor> predictor_;
  Timestamp next_ts_ = 0;  // logical clock: index of the next sample
  std::size_t since_audit_ = 0;
  std::vector<Resolved> ring_;
  std::size_t ring_oldest_ = 0;  // index of the oldest once the ring is full
  std::optional<Pending> pending_;  // the forecast for next_ts_
};

}  // namespace larp::serve
