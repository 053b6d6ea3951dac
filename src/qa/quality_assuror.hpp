// Prediction Quality Assuror (paper §3.2): "periodically audits the
// prediction performance by calculating the average MSE of historical
// prediction data stored in the prediction DB.  When the average MSE of the
// audit window exceeds a predefined threshold, it directs the LARPredictor
// to re-train the predictors and the classifier using recent performance
// data."
#pragma once

#include "tsdb/prediction_db.hpp"
#include "util/stats.hpp"

namespace larp::qa {

struct QaConfig {
  /// Re-train when the audited mean squared error exceeds this value
  /// (normalized units; 1.0 is the variance of a z-scored series).
  double mse_threshold = 1.0;
  /// Number of most recent resolved predictions per audit.
  std::size_t audit_window = 48;
  /// Audits are skipped until at least this many records are resolved.
  std::size_t min_records = 12;
};

/// Throws InvalidArgument unless the threshold is positive and both windows
/// are non-zero.
void validate(const QaConfig& config);

/// Outcome of one audit pass.
struct AuditReport {
  bool audited = false;          // false when too few resolved records exist
  double mse = 0.0;              // audited MSE (valid when audited)
  bool retrain_ordered = false;  // threshold breached: the caller re-trains
  std::size_t records = 0;       // resolved records inspected
};

/// The audit rule, for any store of resolved forecasts: `window` holds the
/// stream's newest audit_window resolved forecasts, added oldest first.
/// Fewer than min_records are not judged; otherwise a mean squared error
/// above the threshold orders a re-train.
[[nodiscard]] AuditReport judge(const QaConfig& config,
                                const stats::RunningMse& window);

class QualityAssuror {
 public:
  /// Borrows the prediction database (caller keeps it alive).
  /// Throws InvalidArgument for a config validate() refuses.
  QualityAssuror(const tsdb::PredictionDatabase& db, QaConfig config);

  /// Audits one stream; on a breach the report orders the re-train.
  AuditReport audit(const tsdb::SeriesKey& key);

  [[nodiscard]] const QaConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t audits_performed() const noexcept { return audits_; }
  [[nodiscard]] std::size_t retrains_ordered() const noexcept { return retrains_; }

 private:
  const tsdb::PredictionDatabase* db_;
  QaConfig config_;
  std::size_t audits_ = 0;
  std::size_t retrains_ = 0;
};

}  // namespace larp::qa
