// Prediction database (paper §3.2): stores each forecast made by the
// LARPredictor together with the observation once it materializes, keyed by
// the paper's combinational primary key [vmID, deviceID, timeStamp,
// metricName].
//
// The Quality Assuror audits this store (average MSE over an audit window)
// and the resource manager reads it for provisioning decisions.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "tsdb/series.hpp"

namespace larp::tsdb {

/// One stored forecast.
struct PredictionRecord {
  double predicted = 0.0;
  /// Filled by record_observation() when the measurement arrives.
  std::optional<double> observed;
  /// Pool label of the predictor that produced the forecast.
  std::size_t predictor_label = 0;

  [[nodiscard]] bool resolved() const noexcept { return observed.has_value(); }
  /// Squared error; throws StateError when unresolved.
  [[nodiscard]] double squared_error() const;
};

class PredictionDatabase {
 public:
  /// Stores a forecast for (key, ts); re-inserting the same primary key
  /// throws InvalidArgument (forecasts are immutable once issued).
  void record_prediction(const SeriesKey& key, Timestamp ts, double predicted,
                         std::size_t predictor_label);

  /// Attaches the realized observation; throws NotFound when no forecast
  /// exists and StateError when already resolved.
  void record_observation(const SeriesKey& key, Timestamp ts, double observed);

  [[nodiscard]] std::size_t size() const noexcept;

  /// Record lookup; nullopt when the primary key is absent.
  [[nodiscard]] std::optional<PredictionRecord> find(const SeriesKey& key,
                                                     Timestamp ts) const;

  /// All resolved records of a stream within [start, end), time-ordered.
  [[nodiscard]] std::vector<std::pair<Timestamp, PredictionRecord>> resolved_range(
      const SeriesKey& key, Timestamp start, Timestamp end) const;

  /// Mean squared error of the stream's resolved records in [start, end);
  /// nullopt when there are none — the QA audit primitive.
  [[nodiscard]] std::optional<double> audit_mse(const SeriesKey& key,
                                                Timestamp start,
                                                Timestamp end) const;

  /// The most recent `count` resolved records of a stream (time-ordered).
  [[nodiscard]] std::vector<std::pair<Timestamp, PredictionRecord>>
  latest_resolved(const SeriesKey& key, std::size_t count) const;

  /// Removes all records of a stream older than `cutoff` (retention).
  void prune_before(const SeriesKey& key, Timestamp cutoff);

  /// Removes every record of a stream (stream teardown).
  void erase_stream(const SeriesKey& key);

 private:
  // Ordered map per stream gives cheap range queries by timestamp.
  std::map<SeriesKey, std::map<Timestamp, PredictionRecord>> streams_;
};

}  // namespace larp::tsdb
