#include "qa/prediction_service.hpp"

#include "util/error.hpp"
#include "util/log.hpp"

namespace larp::qa {

PredictionService::PredictionService(
    const tsdb::RoundRobinDatabase& performance_db,
    predictors::PredictorPool pool_prototype, ServiceConfig config)
    : performance_db_(&performance_db),
      profiler_(performance_db),
      pool_prototype_(std::move(pool_prototype)),
      config_(config),
      qa_(prediction_db_, config.quality) {
  if (config_.train_samples <= config_.lar.window + 1) {
    throw InvalidArgument("PredictionService: train_samples must exceed window+1");
  }
  if (config_.audit_every == 0) {
    throw InvalidArgument("PredictionService: audit_every must be positive");
  }
}

void PredictionService::train(const tsdb::SeriesKey& key) {
  const auto series =
      profiler_.extract_recent(key, config_.interval, config_.train_samples);
  if (series.size() < config_.train_samples) {
    throw StateError("PredictionService: only " + std::to_string(series.size()) +
                     " samples retained; need " +
                     std::to_string(config_.train_samples));
  }

  auto [it, inserted] = streams_.try_emplace(
      key, StreamState{core::LarPredictor(pool_prototype_.clone(), config_.lar),
                       0, std::nullopt, 0, 0});
  StreamState& state = it->second;
  state.predictor.train(series.values);
  state.next_unprocessed = series.axis.end();
  state.pending.reset();
  LARP_LOG_INFO("service") << "trained " << key.to_string() << " on "
                           << series.size() << " samples ending at "
                           << series.axis.end();
}

bool PredictionService::is_trained(const tsdb::SeriesKey& key) const noexcept {
  const auto it = streams_.find(key);
  return it != streams_.end() && it->second.predictor.trained();
}

void PredictionService::retrain_stream(const tsdb::SeriesKey& key) {
  const auto it = streams_.find(key);
  if (it == streams_.end()) return;
  const auto series =
      profiler_.extract_recent(key, config_.interval, config_.train_samples);
  if (series.size() < config_.lar.window + 2) return;  // not enough data yet
  it->second.predictor.retrain(series.values);
  ++retrains_;
}

std::size_t PredictionService::advance(const tsdb::SeriesKey& key) {
  const auto it = streams_.find(key);
  if (it == streams_.end() || !it->second.predictor.trained()) {
    throw StateError("PredictionService: stream not trained: " + key.to_string());
  }
  StreamState& state = it->second;

  const auto range = performance_db_->retained_range(key, config_.interval);
  if (!range) return 0;
  const Timestamp available_end = range->second + config_.interval;

  std::size_t processed = 0;
  while (state.next_unprocessed < available_end) {
    const Timestamp ts = state.next_unprocessed;
    const auto sample =
        performance_db_->fetch(key, config_.interval, ts, ts + config_.interval);
    const double value = sample.values.front();

    // Resolve the forecast that targeted this timestamp, if one is pending.
    if (state.pending && state.pending_ts == ts) {
      prediction_db_.record_observation(key, ts, value);
      state.pending.reset();
    }

    state.predictor.observe(value);
    ++state.processed;
    ++processed;
    state.next_unprocessed += config_.interval;

    // Issue the forecast for the next interval.
    const auto forecast = state.predictor.predict_next();
    const Timestamp target = state.next_unprocessed;
    prediction_db_.record_prediction(key, target, forecast.value, forecast.label);
    state.pending = forecast;
    state.pending_ts = target;

    // Audit on cadence; a breach re-trains from recent data.
    if (state.processed % config_.audit_every == 0 &&
        qa_.audit(key).retrain_ordered) {
      retrain_stream(key);
    }
  }
  return processed;
}

std::optional<core::LarPredictor::Forecast> PredictionService::pending_forecast(
    const tsdb::SeriesKey& key) const {
  const auto it = streams_.find(key);
  if (it == streams_.end()) return std::nullopt;
  return it->second.pending;
}

}  // namespace larp::qa
