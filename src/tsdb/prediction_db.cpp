#include "tsdb/prediction_db.hpp"

#include "util/error.hpp"

namespace larp::tsdb {

double PredictionRecord::squared_error() const {
  if (!observed) throw StateError("PredictionRecord: unresolved record");
  const double d = predicted - *observed;
  return d * d;
}

void PredictionDatabase::record_prediction(const SeriesKey& key, Timestamp ts,
                                           double predicted,
                                           std::size_t predictor_label) {
  auto& stream = streams_[key];
  const auto [it, inserted] =
      stream.emplace(ts, PredictionRecord{predicted, std::nullopt, predictor_label});
  if (!inserted) {
    throw InvalidArgument("PredictionDatabase: duplicate forecast for " +
                          key.to_string() + " @" + std::to_string(ts));
  }
}

void PredictionDatabase::record_observation(const SeriesKey& key, Timestamp ts,
                                            double observed) {
  const auto stream_it = streams_.find(key);
  if (stream_it == streams_.end()) {
    throw NotFound("PredictionDatabase: unknown stream " + key.to_string());
  }
  const auto it = stream_it->second.find(ts);
  if (it == stream_it->second.end()) {
    throw NotFound("PredictionDatabase: no forecast for " + key.to_string() +
                   " @" + std::to_string(ts));
  }
  if (it->second.observed) {
    throw StateError("PredictionDatabase: observation already recorded");
  }
  it->second.observed = observed;
}

std::size_t PredictionDatabase::size() const noexcept {
  std::size_t total = 0;
  for (const auto& [key, stream] : streams_) total += stream.size();
  return total;
}

std::optional<PredictionRecord> PredictionDatabase::find(const SeriesKey& key,
                                                         Timestamp ts) const {
  const auto stream_it = streams_.find(key);
  if (stream_it == streams_.end()) return std::nullopt;
  const auto it = stream_it->second.find(ts);
  if (it == stream_it->second.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<Timestamp, PredictionRecord>>
PredictionDatabase::resolved_range(const SeriesKey& key, Timestamp start,
                                   Timestamp end) const {
  std::vector<std::pair<Timestamp, PredictionRecord>> out;
  const auto stream_it = streams_.find(key);
  if (stream_it == streams_.end()) return out;
  const auto& stream = stream_it->second;
  for (auto it = stream.lower_bound(start); it != stream.end() && it->first < end;
       ++it) {
    if (it->second.resolved()) out.emplace_back(it->first, it->second);
  }
  return out;
}

std::optional<double> PredictionDatabase::audit_mse(const SeriesKey& key,
                                                    Timestamp start,
                                                    Timestamp end) const {
  const auto records = resolved_range(key, start, end);
  if (records.empty()) return std::nullopt;
  double acc = 0.0;
  for (const auto& [ts, record] : records) acc += record.squared_error();
  return acc / static_cast<double>(records.size());
}

std::vector<std::pair<Timestamp, PredictionRecord>>
PredictionDatabase::latest_resolved(const SeriesKey& key, std::size_t count) const {
  std::vector<std::pair<Timestamp, PredictionRecord>> out;
  const auto stream_it = streams_.find(key);
  if (stream_it == streams_.end()) return out;
  const auto& stream = stream_it->second;
  for (auto it = stream.rbegin(); it != stream.rend() && out.size() < count; ++it) {
    if (it->second.resolved()) out.emplace_back(it->first, it->second);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void PredictionDatabase::prune_before(const SeriesKey& key, Timestamp cutoff) {
  const auto stream_it = streams_.find(key);
  if (stream_it == streams_.end()) return;
  auto& stream = stream_it->second;
  stream.erase(stream.begin(), stream.lower_bound(cutoff));
}

void PredictionDatabase::erase_stream(const SeriesKey& key) {
  streams_.erase(key);
}

}  // namespace larp::tsdb
