#include "qa/quality_assuror.hpp"

#include "util/error.hpp"
#include "util/log.hpp"

namespace larp::qa {

void validate(const QaConfig& config) {
  // Negated so a NaN threshold, which no MSE could ever exceed, is refused.
  if (!(config.mse_threshold > 0.0)) {
    throw InvalidArgument("QaConfig: threshold must be positive");
  }
  if (config.audit_window == 0 || config.min_records == 0) {
    throw InvalidArgument("QaConfig: windows must be positive");
  }
}

AuditReport judge(const QaConfig& config, const stats::RunningMse& window) {
  AuditReport report;
  report.records = window.count();
  if (report.records < config.min_records) return report;
  report.audited = true;
  report.mse = window.value();
  report.retrain_ordered = report.mse > config.mse_threshold;
  return report;
}

QualityAssuror::QualityAssuror(const tsdb::PredictionDatabase& db, QaConfig config)
    : db_(&db), config_(config) {
  validate(config_);
}

AuditReport QualityAssuror::audit(const tsdb::SeriesKey& key) {
  stats::RunningMse window;
  for (const auto& [ts, record] :
       db_->latest_resolved(key, config_.audit_window)) {
    window.add(record.predicted, *record.observed);
  }
  const AuditReport report = judge(config_, window);
  if (report.audited) ++audits_;
  if (report.retrain_ordered) {
    ++retrains_;
    LARP_LOG_INFO("qa") << "audit of " << key.to_string() << " MSE=" << report.mse
                        << " breached threshold " << config_.mse_threshold
                        << "; ordering re-training";
  }
  return report;
}

}  // namespace larp::qa
