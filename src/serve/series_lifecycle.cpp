#include "serve/series_lifecycle.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace larp::serve {

namespace {

// Writes the encoded block behind its byte length, charging both to the
// compressed side of the accounting.
void append_block(persist::io::Writer& w, persist::codec::BlockWriter& block,
                  SnapshotBytes& bytes) {
  const auto data = block.bytes();
  const std::size_t at = w.size();
  w.u64(data.size());
  w.bytes(data);
  bytes.encoded += w.size() - at;
}

}  // namespace

template <typename Fn>
void SeriesLifecycle::for_each_resolved(const Fn& fn) const {
  for (std::size_t i = ring_oldest_; i < ring_.size(); ++i) fn(ring_[i]);
  for (std::size_t i = 0; i < ring_oldest_; ++i) fn(ring_[i]);
}

void SeriesLifecycle::keep(const Resolved& record, std::size_t audit_window) {
  if (ring_.size() < audit_window) {
    // Doubling growth, capped at the window so a full ring wastes nothing.
    if (ring_.size() == ring_.capacity()) {
      ring_.reserve(
          std::min(audit_window, std::max<std::size_t>(4, 2 * ring_.size())));
    }
    ring_.push_back(record);
    return;
  }
  ring_[ring_oldest_] = record;
  ring_oldest_ = (ring_oldest_ + 1) % audit_window;
}

void SeriesLifecycle::train(const LifecycleConfig& config, bool is_retrain) {
  const std::size_t take = std::min(history_.size(), config.train_samples);
  const std::vector<double> recent(history_.end() - take, history_.end());
  if (is_retrain) {
    predictor_->retrain(recent);
    // Forget the audited forecasts that ordered it, so the next audit
    // judges the re-trained predictor on fresh forecasts only.
    ring_.clear();
    ring_oldest_ = 0;
    pending_.reset();
  } else {
    // Engaged only once trained: a training that throws leaves the series
    // accumulating, to try again at its next sample.
    core::LarPredictor fresh(config.pool->clone(), config.lar);
    fresh.train(recent);
    predictor_.emplace(std::move(fresh));
  }
}

SeriesLifecycle::Step SeriesLifecycle::observe(double value,
                                               const LifecycleConfig& config) {
  Step step;
  if (predictor_) {
    if (pending_) {
      step.resolved = true;
      step.error = pending_->predicted - value;
      keep({next_ts_, pending_->predicted, value, pending_->label},
           config.quality.audit_window);
      pending_.reset();
    }
    predictor_->observe(value);
  }

  history_.push_back(value);
  while (history_.size() > config.history_capacity) history_.pop_front();
  ++next_ts_;

  if (!predictor_) {
    if (history_.size() >= config.train_samples) {
      train(config, /*is_retrain=*/false);
      step.trained = true;
    }
    return step;
  }
  if (config.audit_every > 0 && ++since_audit_ >= config.audit_every) {
    since_audit_ = 0;
    // Summed oldest first, the order PredictionDatabase::latest_resolved
    // gives the Quality Assuror, so the MSE has the same bits.
    stats::RunningMse window;
    for_each_resolved(
        [&](const Resolved& r) { window.add(r.predicted, r.observed); });
    const qa::AuditReport report = qa::judge(config.quality, window);
    step.audited = report.audited;
    if (report.retrain_ordered) {
      train(config, /*is_retrain=*/true);
      step.retrained = true;
    }
  }
  return step;
}

std::optional<core::LarPredictor::Forecast> SeriesLifecycle::forecast() {
  if (!predictor_) return std::nullopt;
  const auto forecast = predictor_->predict_next();
  // The kept forecast is immutable once issued: re-predicting the same
  // step keeps the first (the predictor itself tracks only the latest for
  // its residuals).
  if (!pending_) pending_ = Pending{forecast.value, forecast.label};
  return forecast;
}

std::optional<core::LarPredictor::Forecast> SeriesLifecycle::peek() {
  if (!predictor_) return std::nullopt;
  return predictor_->peek_next();
}

std::vector<std::pair<Timestamp, tsdb::PredictionRecord>>
SeriesLifecycle::records() const {
  std::vector<std::pair<Timestamp, tsdb::PredictionRecord>> out;
  for_each_resolved([&](const Resolved& r) {
    out.emplace_back(r.ts,
                     tsdb::PredictionRecord{r.predicted, r.observed, r.label});
  });
  if (pending_) {
    out.emplace_back(next_ts_, tsdb::PredictionRecord{pending_->predicted,
                                                      std::nullopt,
                                                      pending_->label});
  }
  return out;
}

void SeriesLifecycle::save(persist::io::Writer& w,
                           persist::codec::BlockWriter& block,
                           SnapshotBytes& bytes) const {
  // History: XOR chain over the retained raw samples (fresh state per
  // block — snapshot blocks are self-contained, unlike the WAL chains).
  w.u64(history_.size());
  block.clear();
  persist::codec::encode_f64_block(block, history_);
  append_block(w, block, bytes);
  bytes.raw += 8 * history_.size();

  w.i64(next_ts_);
  w.u64(since_audit_);
  // The layout's retrain-requested slot: a re-train runs inside the
  // observation that orders it, so at rest there is never one to record.
  w.boolean(false);
  w.boolean(trained());
  if (predictor_) predictor_->save_state(w);

  // Kept forecasts: timestamps are near-consecutive (delta-of-delta),
  // predictions/observations are slowly varying doubles (XOR), labels are
  // tiny (uvarint) — interleaved per record in one bit stream.
  w.u64(ring_.size() + (pending_ ? 1 : 0));
  block.clear();
  persist::codec::DodEncoder ts_enc;
  persist::codec::XorState predicted_state;
  persist::codec::XorState observed_state;
  const auto put = [&](Timestamp ts, double predicted,
                       std::optional<double> observed, std::size_t label) {
    ts_enc.put(block, ts);
    persist::codec::XorEncoder::put(block, predicted_state, predicted);
    block.bit(observed.has_value());
    if (observed) {
      persist::codec::XorEncoder::put(block, observed_state, *observed);
    }
    block.uvarint(label);
    bytes.raw += 8 + 8 + 1 + (observed ? 8 : 0) + 8;
  };
  for_each_resolved([&](const Resolved& r) {
    put(r.ts, r.predicted, r.observed, r.label);
  });
  if (pending_) {
    put(next_ts_, pending_->predicted, std::nullopt, pending_->label);
  }
  append_block(w, block, bytes);
}

void SeriesLifecycle::load(persist::io::Reader& r, std::uint32_t version,
                           const LifecycleConfig& config) {
  if (version >= 4) {
    const auto samples = static_cast<std::size_t>(r.length(r.u64(), 1));
    const auto block_bytes = static_cast<std::size_t>(r.length(r.u64(), 1));
    persist::codec::BlockReader block(r.bytes(block_bytes));
    (void)persist::codec::decode_f64_block(block, samples, history_);
  } else {
    const auto samples =
        static_cast<std::size_t>(r.length(r.u64(), sizeof(double)));
    for (std::size_t i = 0; i < samples; ++i) history_.push_back(r.f64());
  }
  next_ts_ = static_cast<Timestamp>(r.i64());
  since_audit_ = static_cast<std::size_t>(r.u64());
  (void)r.boolean();  // the retrain-requested slot (see save())
  if (r.boolean()) {
    predictor_.emplace(config.pool->clone(), config.lar);
    predictor_->load_state(r);
  }

  std::optional<Timestamp> last;
  const auto take = [&](Timestamp ts, const tsdb::PredictionRecord& record) {
    if (last && ts <= *last) {
      throw persist::CorruptData(
          "engine snapshot: prediction records out of order");
    }
    last = ts;
    if (record.observed) {
      keep({ts, record.predicted, *record.observed, record.predictor_label},
           config.quality.audit_window);
    } else if (ts == next_ts_ && predictor_) {
      pending_ = Pending{record.predicted, record.predictor_label};
    }
  };
  if (version >= 4) {
    const auto records = static_cast<std::size_t>(r.length(r.u64(), 1));
    const auto block_bytes = static_cast<std::size_t>(r.length(r.u64(), 1));
    persist::codec::BlockReader block(r.bytes(block_bytes));
    persist::codec::DodDecoder ts_dec;
    persist::codec::XorState predicted_state;
    persist::codec::XorState observed_state;
    for (std::size_t i = 0; i < records; ++i) {
      const auto ts = static_cast<Timestamp>(ts_dec.get(block));
      tsdb::PredictionRecord record;
      record.predicted =
          persist::codec::XorDecoder::get(block, predicted_state);
      if (block.bit()) {
        record.observed =
            persist::codec::XorDecoder::get(block, observed_state);
      }
      record.predictor_label = static_cast<std::size_t>(block.uvarint());
      take(ts, record);
    }
  } else {
    const auto records =
        static_cast<std::size_t>(r.length(r.u64(), sizeof(std::uint64_t)));
    for (std::size_t i = 0; i < records; ++i) {
      const auto ts = static_cast<Timestamp>(r.i64());
      tsdb::PredictionRecord record;
      record.predicted = r.f64();
      if (r.boolean()) record.observed = r.f64();
      record.predictor_label = static_cast<std::size_t>(r.u64());
      take(ts, record);
    }
  }
}

}  // namespace larp::serve
