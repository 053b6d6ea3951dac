// Tests for the Prediction Quality Assuror (§3.2).
#include "qa/quality_assuror.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace larp::qa {
namespace {

const tsdb::SeriesKey kKey{"VM1", "cpu", "CPU_usedsec"};

void fill(tsdb::PredictionDatabase& db, int count, double error,
          Timestamp start = 0) {
  for (int i = 0; i < count; ++i) {
    const Timestamp ts = start + i * 300;
    db.record_prediction(kKey, ts, 0.0, 0);
    db.record_observation(kKey, ts, error);
  }
}

TEST(QualityAssuror, Validation) {
  tsdb::PredictionDatabase db;
  QaConfig bad;
  bad.mse_threshold = 0.0;
  EXPECT_THROW(QualityAssuror(db, bad), InvalidArgument);
  bad = {};
  bad.audit_window = 0;
  EXPECT_THROW(QualityAssuror(db, bad), InvalidArgument);
  bad = {};
  bad.min_records = 0;
  EXPECT_THROW(QualityAssuror(db, bad), InvalidArgument);
}

TEST(QualityAssuror, SkipsAuditBelowMinRecords) {
  tsdb::PredictionDatabase db;
  QaConfig config;
  config.min_records = 10;
  QualityAssuror qa(db, config);
  fill(db, 5, 1.0);
  const auto report = qa.audit(kKey);
  EXPECT_FALSE(report.audited);
  EXPECT_EQ(report.records, 5u);
  EXPECT_EQ(qa.audits_performed(), 0u);
}

TEST(QualityAssuror, PassingAuditDoesNotRetrain) {
  tsdb::PredictionDatabase db;
  QaConfig config;
  config.mse_threshold = 2.0;
  config.min_records = 5;
  QualityAssuror qa(db, config);
  fill(db, 20, 1.0);  // MSE = 1 < 2
  const auto report = qa.audit(kKey);
  EXPECT_TRUE(report.audited);
  EXPECT_DOUBLE_EQ(report.mse, 1.0);
  EXPECT_FALSE(report.retrain_ordered);
}

TEST(QualityAssuror, BreachTriggersRetrainHandler) {
  tsdb::PredictionDatabase db;
  QaConfig config;
  config.mse_threshold = 1.0;
  config.min_records = 5;
  QualityAssuror qa(db, config);
  fill(db, 20, 3.0);  // MSE = 9 > 1
  const auto report = qa.audit(kKey);
  EXPECT_TRUE(report.retrain_ordered);
  EXPECT_EQ(qa.retrains_ordered(), 1u);
}

TEST(QualityAssuror, AuditWindowLimitsLookback) {
  tsdb::PredictionDatabase db;
  QaConfig config;
  config.mse_threshold = 1.0;
  config.audit_window = 10;
  config.min_records = 5;
  QualityAssuror qa(db, config);
  // Old terrible predictions followed by recent perfect ones: the audit
  // only sees the recent window and passes.
  fill(db, 30, 10.0, 0);
  fill(db, 10, 0.0, 30 * 300);
  const auto report = qa.audit(kKey);
  EXPECT_TRUE(report.audited);
  EXPECT_DOUBLE_EQ(report.mse, 0.0);
  EXPECT_FALSE(report.retrain_ordered);
}

TEST(QualityAssuror, NoHandlerIsSafe) {
  tsdb::PredictionDatabase db;
  QaConfig config;
  config.min_records = 1;
  QualityAssuror qa(db, config);
  fill(db, 5, 100.0);
  EXPECT_NO_THROW((void)qa.audit(kKey));
  EXPECT_EQ(qa.retrains_ordered(), 1u);
}

TEST(QualityAssuror, UnknownStreamIsEmptyAudit) {
  tsdb::PredictionDatabase db;
  QualityAssuror qa(db, QaConfig{});
  const auto report = qa.audit(tsdb::SeriesKey{"no", "such", "stream"});
  EXPECT_FALSE(report.audited);
  EXPECT_EQ(report.records, 0u);
}

}  // namespace
}  // namespace larp::qa
