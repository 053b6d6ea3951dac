// Tests for one served series' lifecycle, with no engine around it, and for
// its bounded audit window against the design it replaced: every forecast
// kept in a tsdb::PredictionDatabase and audited by a qa::QualityAssuror.
#include "serve/series_lifecycle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "serve/prediction_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace larp::serve {
namespace {

const tsdb::SeriesKey kKey{"vm", "dev", "cpu"};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

using Records = std::vector<std::pair<Timestamp, tsdb::PredictionRecord>>;

/// Field by field, doubles as bit patterns.
::testing::AssertionResult same_records(const Records& got,
                                        const Records& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " records, want " << want.size();
  }
  for (std::size_t k = 0; k < got.size(); ++k) {
    const auto& [ts, record] = got[k];
    const auto& [want_ts, want_record] = want[k];
    if (ts != want_ts ||
        bits(record.predicted) != bits(want_record.predicted) ||
        record.observed.has_value() != want_record.observed.has_value() ||
        (record.observed &&
         bits(*record.observed) != bits(*want_record.observed)) ||
        record.predictor_label != want_record.predictor_label) {
      return ::testing::AssertionFailure() << "record " << k << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// An AR(1) stream around 50 whose level jumps now and then, so audits see
/// both good and bad stretches.
std::vector<double> shifting_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  double dev = 0.0;
  double level = 50.0;
  for (auto& x : xs) {
    if (rng.uniform() < 0.01) level += rng.normal(0.0, 20.0);
    dev = 0.8 * dev + rng.normal(0.0, 2.0);
    x = level + dev;
  }
  return xs;
}

class SeriesLifecycleTest : public ::testing::Test {
 protected:
  SeriesLifecycleTest() {
    config_.pool = &pool_;
    config_.lar.window = 5;
    config_.train_samples = 20;
    config_.history_capacity = 40;
    config_.audit_every = 0;
    config_.quality.audit_window = 4;
    config_.quality.min_records = 2;
  }

  /// Observes until trained; returns the next unused sample.
  std::size_t train(SeriesLifecycle& series) {
    std::size_t i = 0;
    while (!series.trained()) (void)series.observe(samples_[i++], config_);
    return i;
  }

  predictors::PredictorPool pool_ = predictors::make_paper_pool(5);
  LifecycleConfig config_;
  std::vector<double> samples_ = shifting_series(400, 11);
};

TEST_F(SeriesLifecycleTest, TrainsExactlyAtTrainSamples) {
  SeriesLifecycle series;
  for (std::size_t i = 0; i + 1 < config_.train_samples; ++i) {
    const auto step = series.observe(samples_[i], config_);
    EXPECT_FALSE(step.trained);
    EXPECT_FALSE(series.forecast().has_value());
  }
  EXPECT_FALSE(series.trained());
  EXPECT_TRUE(series.observe(samples_[19], config_).trained);
  EXPECT_TRUE(series.trained());
  EXPECT_TRUE(series.forecast().has_value());
  EXPECT_FALSE(series.observe(samples_[20], config_).trained);
}

// Finite samples can still break a training: two near 1e308 overflow the
// sums the fit runs on.  The series is then left untrained and accumulating,
// not holding an untrained predictor, and tries again at each later sample.
TEST_F(SeriesLifecycleTest, FailedTrainingLeavesTheSeriesAccumulating) {
  std::vector<double> xs(samples_.begin(),
                         samples_.begin() + 2 * config_.train_samples);
  xs[0] = xs[1] = 1e308;
  SeriesLifecycle series;
  for (std::size_t i = 0; i + 1 < config_.train_samples; ++i) {
    (void)series.observe(xs[i], config_);
  }
  EXPECT_THROW((void)series.observe(xs[19], config_), Error);
  EXPECT_FALSE(series.trained());
  EXPECT_FALSE(series.forecast().has_value());
  std::size_t trains = 0;
  for (std::size_t i = 20; i < xs.size(); ++i) {
    try {
      if (series.observe(xs[i], config_).trained) ++trains;
    } catch (const Error& e) {
      // Only sample 20's window still holds an overflowing sample.
      ASSERT_EQ(i, 20u) << e.what();
      EXPECT_FALSE(series.trained());
    }
  }
  EXPECT_EQ(trains, 1u);
  EXPECT_TRUE(series.forecast().has_value());
}

TEST_F(SeriesLifecycleTest, RingHoldsTheNewestAuditWindowAndDropsTheOldest) {
  SeriesLifecycle series;
  std::size_t i = train(series);
  const Timestamp first = static_cast<Timestamp>(i);
  for (std::size_t n = 1; n <= 10; ++n, ++i) {
    const auto forecast = series.forecast();
    ASSERT_TRUE(forecast.has_value());
    const auto step = series.observe(samples_[i], config_);
    ASSERT_TRUE(step.resolved);
    EXPECT_EQ(bits(step.error), bits(forecast->value - samples_[i]));
    const auto records = series.records();
    ASSERT_EQ(records.size(), std::min<std::size_t>(n, 4));
    // Oldest first, ending at the sample just observed.
    for (std::size_t k = 0; k < records.size(); ++k) {
      const std::size_t at = i + 1 - records.size() + k;
      EXPECT_EQ(records[k].first, static_cast<Timestamp>(at));
      ASSERT_TRUE(records[k].second.resolved());
      EXPECT_EQ(bits(*records[k].second.observed), bits(samples_[at]));
    }
  }
  EXPECT_EQ(series.records().front().first, first + 6);
  // The pending forecast follows the full ring.
  (void)series.forecast();
  const auto records = series.records();
  ASSERT_EQ(records.size(), 5u);
  EXPECT_FALSE(records.back().second.resolved());
  EXPECT_EQ(records.back().first, static_cast<Timestamp>(i));
}

TEST_F(SeriesLifecycleTest, SecondForecastOfAStepKeepsTheFirst) {
  SeriesLifecycle series;
  const std::size_t i = train(series);
  const auto first = series.forecast();
  (void)series.forecast();
  const auto records = series.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, static_cast<Timestamp>(i));
  EXPECT_EQ(bits(records[0].second.predicted), bits(first->value));
  EXPECT_EQ(records[0].second.predictor_label, first->label);
  const auto step = series.observe(samples_[i], config_);
  EXPECT_EQ(bits(step.error), bits(first->value - samples_[i]));
  EXPECT_EQ(series.records().size(), 1u);
}

TEST_F(SeriesLifecycleTest, RetrainClearsTheRingAndThePendingForecast) {
  config_.audit_every = 3;
  config_.quality.mse_threshold = 1e-12;  // every judged audit breaches
  SeriesLifecycle series;
  std::size_t i = train(series);
  bool retrained = false;
  for (; i < 60 && !retrained; ++i) {
    (void)series.forecast();
    EXPECT_FALSE(series.records().empty());
    const auto step = series.observe(samples_[i], config_);
    EXPECT_EQ(step.retrained, step.audited);
    retrained = step.retrained;
  }
  ASSERT_TRUE(retrained);
  // Nothing resolved and nothing pending: the next audit judges only
  // forecasts of the re-trained predictor.
  EXPECT_TRUE(series.records().empty());
  (void)series.forecast();
  EXPECT_EQ(series.records().size(), 1u);
}

TEST_F(SeriesLifecycleTest, SaveAndLoadContinueBitIdentically) {
  // Audits come less often than the ring wraps, and some order re-trains.
  config_.audit_every = 7;
  config_.quality.mse_threshold = 30.0;
  SeriesLifecycle series;
  std::size_t i = train(series);
  std::size_t retrains = 0;
  for (; i < 200 || series.records().size() < 4; ++i) {
    (void)series.forecast();
    retrains += series.observe(samples_[i], config_).retrained ? 1 : 0;
  }
  EXPECT_GT(retrains, 0u);
  (void)series.forecast();
  ASSERT_EQ(series.records().size(), 5u);

  persist::io::Writer w;
  persist::codec::BlockWriter block;
  SnapshotBytes bytes;
  series.save(w, block, bytes);
  // What the compressed fields would cost raw: the full history, then four
  // resolved records and the pending one.
  EXPECT_EQ(bytes.raw, 8 * config_.history_capacity + 4 * 33 + 25);
  SeriesLifecycle loaded;
  persist::io::Reader r(w.bytes());
  loaded.load(r, 4, config_);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(same_records(loaded.records(), series.records()));
  persist::io::Writer again;
  SnapshotBytes again_bytes;
  loaded.save(again, block, again_bytes);
  ASSERT_EQ(again.size(), w.size());
  EXPECT_TRUE(std::equal(w.bytes().begin(), w.bytes().end(),
                         again.bytes().begin()));

  for (; i < 300; ++i) {
    const auto want = series.forecast();
    const auto got = loaded.forecast();
    ASSERT_EQ(bits(got->value), bits(want->value)) << "step " << i;
    const auto want_step = series.observe(samples_[i], config_);
    const auto got_step = loaded.observe(samples_[i], config_);
    EXPECT_EQ(bits(got_step.error), bits(want_step.error));
    EXPECT_EQ(got_step.audited, want_step.audited);
    EXPECT_EQ(got_step.retrained, want_step.retrained);
  }
}

TEST_F(SeriesLifecycleTest, LoadedListLongerThanTheWindowKeepsTheNewest) {
  config_.quality.audit_window = 16;
  SeriesLifecycle series;
  std::size_t i = train(series);
  for (; i < 60; ++i) {
    (void)series.forecast();
    (void)series.observe(samples_[i], config_);
  }
  (void)series.forecast();
  const auto kept = series.records();
  ASSERT_EQ(kept.size(), 17u);

  persist::io::Writer w;
  persist::codec::BlockWriter block;
  SnapshotBytes bytes;
  series.save(w, block, bytes);
  config_.quality.audit_window = 4;
  SeriesLifecycle loaded;
  persist::io::Reader r(w.bytes());
  loaded.load(r, 4, config_);
  EXPECT_TRUE(
      same_records(loaded.records(), Records(kept.end() - 5, kept.end())));
}

// A snapshot is outside input: of its unresolved records only the one at
// the next step is a pending forecast, and records must come in time order.
TEST_F(SeriesLifecycleTest, LoadKeepsOnlyThePendingUnresolvedRecord) {
  SeriesLifecycle series;
  const auto next = static_cast<Timestamp>(train(series));
  persist::io::Writer w;
  persist::codec::BlockWriter block;
  SnapshotBytes bytes;
  series.save(w, block, bytes);
  // No forecast was made, so the block ends with an empty records list:
  // its count and its block length, both zero.
  const std::vector<std::byte> head(w.bytes().begin(), w.bytes().end() - 16);

  struct Row {
    Timestamp ts;
    std::optional<double> observed;
  };
  const auto load = [&](const std::vector<Row>& rows) {
    persist::codec::BlockWriter records;
    persist::codec::DodEncoder ts_enc;
    persist::codec::XorState predicted;
    persist::codec::XorState observed;
    for (const Row& row : rows) {
      ts_enc.put(records, row.ts);
      // Each record's forecast tells it apart: 50 plus its offset from next.
      persist::codec::XorEncoder::put(
          records, predicted, 50.0 + static_cast<double>(row.ts - next));
      records.bit(row.observed.has_value());
      if (row.observed) {
        persist::codec::XorEncoder::put(records, observed, *row.observed);
      }
      records.uvarint(1);
    }
    persist::io::Writer payload;
    payload.bytes(head);
    payload.u64(rows.size());
    const auto encoded = records.bytes();
    payload.u64(encoded.size());
    payload.bytes(encoded);
    SeriesLifecycle loaded;
    persist::io::Reader r(payload.bytes());
    loaded.load(r, 4, config_);
    return loaded.records();
  };

  const auto kept = load({{next - 3, 51.0},
                          {next - 2, std::nullopt},
                          {next - 1, 52.0},
                          {next, std::nullopt},
                          {next + 2, std::nullopt}});
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].first, next - 3);
  EXPECT_EQ(kept[1].first, next - 1);
  EXPECT_EQ(kept[2].first, next);
  EXPECT_FALSE(kept[2].second.resolved());
  EXPECT_EQ(kept[2].second.predicted, 50.0);
  EXPECT_THROW((void)load({{next - 1, 51.0}, {next - 2, 52.0}}),
               persist::CorruptData);
  EXPECT_THROW((void)load({{next, std::nullopt}, {next, std::nullopt}}),
               persist::CorruptData);
}

/// The design SeriesLifecycle replaced, in the engine's old call order: raw
/// history and a LarPredictor per series, every forecast since the last
/// re-train in a PredictionDatabase, and a QualityAssuror auditing it.
class Reference {
 public:
  explicit Reference(const LifecycleConfig& config)
      : config_(config), qa_(db_, config.quality) {}
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  std::optional<core::LarPredictor::Forecast> forecast() {
    if (!predictor_) return std::nullopt;
    const auto f = predictor_->predict_next();
    if (!db_.find(kKey, next_ts_)) {
      db_.record_prediction(kKey, next_ts_, f.value, f.label);
    }
    return f;
  }

  SeriesLifecycle::Step observe(double value) {
    SeriesLifecycle::Step step;
    if (predictor_) {
      if (const auto record = db_.find(kKey, next_ts_);
          record && !record->resolved()) {
        db_.record_observation(kKey, next_ts_, value);
        step.resolved = true;
        step.error = record->predicted - value;
      }
      predictor_->observe(value);
    }
    history_.push_back(value);
    while (history_.size() > config_.history_capacity) history_.pop_front();
    ++next_ts_;
    if (!predictor_ && history_.size() >= config_.train_samples) {
      predictor_.emplace(config_.pool->clone(), config_.lar);
      predictor_->train(recent());
      step.trained = true;
      return step;
    }
    if (predictor_ && ++since_audit_ >= config_.audit_every) {
      since_audit_ = 0;
      const auto report = qa_.audit(kKey);
      step.audited = report.audited;
      if (report.retrain_ordered) {
        predictor_->retrain(recent());
        db_.prune_before(kKey, next_ts_ + 1);
        step.retrained = true;
      }
    }
    return step;
  }

  /// What the audit window should hold: the newest audit_window resolved
  /// records, then the pending one.
  [[nodiscard]] Records window() const {
    auto out = db_.latest_resolved(kKey, config_.quality.audit_window);
    if (const auto pending = db_.find(kKey, next_ts_)) {
      out.emplace_back(next_ts_, *pending);
    }
    return out;
  }
  [[nodiscard]] std::size_t stored() const { return db_.size(); }

 private:
  [[nodiscard]] std::vector<double> recent() const {
    const std::size_t take = std::min(history_.size(), config_.train_samples);
    return {history_.end() - take, history_.end()};
  }

  LifecycleConfig config_;
  std::deque<double> history_;
  std::optional<core::LarPredictor> predictor_;
  Timestamp next_ts_ = 0;
  std::size_t since_audit_ = 0;
  tsdb::PredictionDatabase db_;
  qa::QualityAssuror qa_;
};

/// How many forecasts step `i` asks for: none on 20% of steps, two on 15%.
std::vector<std::size_t> forecasts_per_step(std::size_t steps,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> out(steps);
  for (auto& n : out) {
    const double u = rng.uniform();
    n = u < 0.20 ? 0 : u < 0.35 ? 2 : 1;
  }
  return out;
}

LifecycleConfig reference_config(const predictors::PredictorPool& pool,
                                 double threshold) {
  LifecycleConfig config;
  config.pool = &pool;
  config.lar.window = 5;
  config.train_samples = 40;
  config.history_capacity = 80;
  config.audit_every = 6;
  config.quality.mse_threshold = threshold;
  config.quality.audit_window = 10;
  config.quality.min_records = 4;
  return config;
}

constexpr double kThresholds[] = {0.5, 4.0, 16.0, 1e9};

// Every forecast, every step's outcome and the audit window itself match the
// database design bit for bit, across a save and load taken mid-wrap with a
// forecast pending.
TEST(SeriesLifecycleReference, MatchesTheDatabaseDesign) {
  const auto pool = predictors::make_paper_pool(5);
  const auto samples = shifting_series(600, 23);
  const auto asks = forecasts_per_step(samples.size(), 24);
  for (const double threshold : kThresholds) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    const auto config = reference_config(pool, threshold);
    Reference reference(config);
    auto series = std::make_unique<SeriesLifecycle>();
    bool reloaded = false;
    std::size_t retrains = 0;
    std::size_t most_stored = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      for (std::size_t n = 0; n < asks[i]; ++n) {
        const auto want = reference.forecast();
        const auto got = series->forecast();
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << i;
        if (want) {
          ASSERT_EQ(bits(got->value), bits(want->value)) << i;
        }
      }
      if (i >= 300 && asks[i] > 0 && !reloaded) {
        // Without re-trains the ring has wrapped by now; either way a
        // forecast is pending.
        if (threshold > 1e6) {
          ASSERT_EQ(series->records().size(), 11u);
        }
        ASSERT_FALSE(series->records().back().second.resolved());
        persist::io::Writer w;
        persist::codec::BlockWriter block;
        SnapshotBytes bytes;
        series->save(w, block, bytes);
        series = std::make_unique<SeriesLifecycle>();
        persist::io::Reader r(w.bytes());
        series->load(r, 4, config);
        reloaded = true;
      }
      const auto want = reference.observe(samples[i]);
      const auto got = series->observe(samples[i], config);
      ASSERT_EQ(got.resolved, want.resolved) << "step " << i;
      ASSERT_EQ(bits(got.error), bits(want.error)) << "step " << i;
      ASSERT_EQ(got.trained, want.trained) << "step " << i;
      ASSERT_EQ(got.audited, want.audited) << "step " << i;
      ASSERT_EQ(got.retrained, want.retrained) << "step " << i;
      ASSERT_TRUE(same_records(series->records(), reference.window()))
          << "step " << i;
      retrains += got.retrained ? 1 : 0;
      most_stored = std::max(most_stored, reference.stored());
    }
    if (threshold < 1.0) {
      EXPECT_GT(retrains, 20u);
    }
    if (threshold > 1e6) {
      EXPECT_EQ(retrains, 0u);
      EXPECT_GT(most_stored, 400u);  // the database kept every forecast
    }
  }
}

// The same through the engine: one shard, three series, a snapshot mid-run
// with forecasts pending, then the restored engine carries on.  Forecasts
// and QA counters match a Reference per series.
TEST(SeriesLifecycleReference, EngineMatchesTheDatabaseDesign) {
  namespace fs = std::filesystem;
  const auto pool = predictors::make_paper_pool(5);
  const std::size_t kSeries = 3;
  const std::size_t kSteps = 400;
  std::vector<tsdb::SeriesKey> keys;
  std::vector<std::vector<double>> samples;
  for (std::size_t s = 0; s < kSeries; ++s) {
    keys.push_back({"vm" + std::to_string(s), "dev", "cpu"});
    samples.push_back(shifting_series(kSteps, 40 + s));
  }
  const auto asks = forecasts_per_step(kSteps, 41);
  for (const double threshold : kThresholds) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    const auto config = reference_config(pool, threshold);
    EngineConfig engine_config;
    engine_config.lar = config.lar;
    engine_config.quality = config.quality;
    engine_config.shards = 1;
    engine_config.threads = 1;
    engine_config.train_samples = config.train_samples;
    engine_config.history_capacity = config.history_capacity;
    engine_config.audit_every = config.audit_every;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "larp_lifecycle_reference";
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto engine =
        std::make_unique<PredictionEngine>(pool.clone(), engine_config);
    std::vector<std::unique_ptr<Reference>> reference;
    for (std::size_t s = 0; s < kSeries; ++s) {
      reference.push_back(std::make_unique<Reference>(config));
    }
    std::size_t retrains = 0;
    std::size_t audits = 0;
    std::size_t resolved = 0;
    double sq_error_sum = 0.0;
    std::vector<Observation> batch(kSeries);
    for (std::size_t i = 0; i < kSteps; ++i) {
      for (std::size_t n = 0; n < asks[i]; ++n) {
        const auto got = engine->predict(keys);
        for (std::size_t s = 0; s < kSeries; ++s) {
          const auto want = reference[s]->forecast();
          ASSERT_EQ(got[s].ready, want.has_value()) << "step " << i;
          if (want) {
            ASSERT_EQ(bits(got[s].value), bits(want->value)) << i;
          }
        }
      }
      if (i == 250) {
        (void)engine->snapshot(dir);
        engine.reset();
        engine = PredictionEngine::restore(pool.clone(), dir, engine_config);
      }
      for (std::size_t s = 0; s < kSeries; ++s) {
        batch[s] = {keys[s], samples[s][i]};
        const auto step = reference[s]->observe(samples[s][i]);
        retrains += step.retrained ? 1 : 0;
        audits += step.audited ? 1 : 0;
        if (step.resolved) {
          ++resolved;
          sq_error_sum += step.error * step.error;
        }
      }
      engine->observe(batch);
    }
    const auto stats = engine->stats();
    EXPECT_EQ(stats.retrains, retrains);
    EXPECT_EQ(stats.audits, audits);
    EXPECT_EQ(stats.resolved, resolved);
    EXPECT_EQ(bits(stats.mean_squared_error),
              bits(sq_error_sum / static_cast<double>(resolved)));
    engine.reset();
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace larp::serve
