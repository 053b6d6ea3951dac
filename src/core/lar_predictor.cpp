#include "core/lar_predictor.hpp"

#include <cmath>
#include <limits>

#include "ml/framing.hpp"
#include "persist/io.hpp"
#include "selection/centroid_selector.hpp"
#include "selection/knn_selector.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace larp::core {

LarPredictor::LarPredictor(predictors::PredictorPool pool, LarConfig config)
    : pool_(std::move(pool)), config_(config) {
  if (pool_.empty()) throw InvalidArgument("LarPredictor: empty pool");
  if (config_.window == 0) throw InvalidArgument("LarPredictor: zero window");
  if (config_.window < pool_.min_history()) {
    throw InvalidArgument(
        "LarPredictor: window smaller than the pool's minimum history");
  }
  if (config_.knn_k == 0) throw InvalidArgument("LarPredictor: k must be positive");
}

std::vector<std::size_t> label_best_predictors(
    predictors::PredictorPool& pool, std::span<const double> normalized_series,
    std::size_t window, Labeling labeling, std::size_t label_window) {
  if (normalized_series.size() <= window) {
    throw InvalidArgument("label_best_predictors: series shorter than window+1");
  }
  const std::size_t count = normalized_series.size() - window;
  std::vector<std::size_t> labels;
  labels.reserve(count);

  if (label_window == 0) label_window = window;
  std::vector<stats::WindowedMse> trackers(
      pool.size(), stats::WindowedMse(label_window));

  pool.reset_all();
  // Prime online state with the first window's worth of observations.
  for (std::size_t i = 0; i < window; ++i) {
    pool.observe_all(normalized_series[i]);
  }
  // Per-step buffers hoisted out of the walk: the labeling pass runs over
  // every training window, so per-step vector churn shows up in train().
  std::vector<double> forecasts;
  std::vector<double> errors;
  forecasts.reserve(pool.size());
  errors.reserve(pool.size());
  for (std::size_t i = 0; i < count; ++i) {
    const auto win = normalized_series.subspan(i, window);
    const double target = normalized_series[i + window];
    pool.predict_all_into(win, forecasts);
    if (labeling == Labeling::StepAbsoluteError) {
      labels.push_back(selection::best_forecast_label(forecasts, target));
    } else {
      for (std::size_t p = 0; p < pool.size(); ++p) {
        trackers[p].add(forecasts[p], target);
      }
      errors.clear();
      for (const auto& tracker : trackers) errors.push_back(tracker.value());
      labels.push_back(selection::argmin_label(errors));
    }
    pool.observe_all(target);
  }
  return labels;
}

void LarPredictor::train(std::span<const double> raw_series) {
  if (raw_series.size() < config_.window + 2) {
    throw InvalidArgument("LarPredictor::train: series too short (need window+2)");
  }
  for (double value : raw_series) {
    if (!std::isfinite(value)) {
      throw InvalidArgument(
          "LarPredictor::train: non-finite sample in training series");
    }
  }

  normalizer_.fit(raw_series);
  const auto normalized = normalizer_.transform(raw_series);

  pool_.fit_all(normalized);
  training_labels_ =
      label_best_predictors(pool_, normalized, config_.window,
                            config_.labeling, config_.label_window);

  const auto framed = ml::frame_supervised(normalized, config_.window);
  LARP_ASSERT(framed.windows.rows() == training_labels_.size());

  pca_ = ml::Pca{};
  pca_.fit(framed.windows, config_.pca_policy());

  if (config_.classifier == ClassifierKind::NearestCentroid) {
    ml::NearestCentroidClassifier classifier;
    classifier.fit(pca_.transform(framed.windows), training_labels_);
    selector_ = std::make_unique<selection::CentroidSelector>(
        pca_, std::move(classifier));
  } else {
    ml::KnnClassifier classifier(config_.knn_k, config_.knn_backend);
    classifier.fit(pca_.transform(framed.windows), training_labels_);
    selector_ =
        std::make_unique<selection::KnnSelector>(pca_, std::move(classifier));
  }

  // Warm online state: the window is the training tail and the pool members
  // have already observed the whole series during labeling.
  online_window_.assign(normalized.end() - config_.window, normalized.end());
  observed_count_ = raw_series.size();
  pending_forecast_.reset();
  residuals_.emplace(std::max<std::size_t>(1, config_.uncertainty_window));
  resolved_forecasts_ = 0;
  const std::size_t horizon =
      config_.label_window == 0 ? config_.window : config_.label_window;
  online_label_trackers_.assign(pool_.size(), stats::WindowedMse(horizon));
  online_windows_learned_ = 0;

  LARP_LOG_INFO("core") << "LarPredictor trained on " << raw_series.size()
                        << " points, " << training_labels_.size()
                        << " labeled windows, pool of " << pool_.size();
}

void LarPredictor::require_trained() const {
  if (!trained()) throw StateError("LarPredictor: not trained");
}

void LarPredictor::observe(double raw_value) {
  require_trained();
  if (!std::isfinite(raw_value)) {
    throw InvalidArgument("LarPredictor::observe: non-finite sample");
  }
  if (pending_forecast_) {
    residuals_->add(*pending_forecast_, raw_value);
    ++resolved_forecasts_;
    pending_forecast_.reset();
  }
  const double z = normalizer_.transform(raw_value);

  // Online learning: the incoming value completes the current window; run
  // the whole pool on it (training-phase semantics), derive the window's
  // best-predictor label, and grow the classifier's index.
  if (config_.online_learning && online_window_.size() == config_.window &&
      selector_->supports_online_learning()) {
    pool_.predict_all_into(online_window_, scratch_.forecasts);
    std::size_t label;
    if (config_.labeling == Labeling::StepAbsoluteError) {
      label = selection::best_forecast_label(scratch_.forecasts, z);
    } else {
      for (std::size_t p = 0; p < pool_.size(); ++p) {
        online_label_trackers_[p].add(scratch_.forecasts[p], z);
      }
      scratch_.errors.clear();
      for (const auto& tracker : online_label_trackers_) {
        scratch_.errors.push_back(tracker.value());
      }
      label = selection::argmin_label(scratch_.errors);
    }
    selector_->learn(online_window_, label);
    ++online_windows_learned_;
  }

  pool_.observe_all(z);
  online_window_.push_back(z);
  if (online_window_.size() > config_.window) {
    online_window_.erase(online_window_.begin());
  }
  ++observed_count_;
}

std::span<const double> LarPredictor::prediction_window() {
  if (online_window_.size() < config_.window) {
    throw StateError("LarPredictor: fewer observations than the window size");
  }
  if (!config_.predict_in_pca_space) return online_window_;
  // Ablation: run the expert on the PCA-reconstructed window, i.e. only the
  // information the retained components carry (DESIGN.md §5).  Both the
  // projection and the reconstruction land in reusable scratch.
  scratch_.reduced.resize(pca_.components());
  scratch_.window.resize(config_.window);
  pca_.transform_into(online_window_, std::span<double>(scratch_.reduced));
  pca_.inverse_transform_into(scratch_.reduced,
                              std::span<double>(scratch_.window));
  return scratch_.window;
}

LarPredictor::Forecast LarPredictor::predict_next() {
  Forecast forecast = peek_next();
  pending_forecast_ = forecast.value;
  return forecast;
}

LarPredictor::Forecast LarPredictor::peek_next() {
  require_trained();
  const auto window = prediction_window();
  // Selection always happens in PCA space on the true window (§6.2).
  std::size_t label;
  double z;
  if (config_.soft_vote) {
    selector_->select_weights_into(online_window_, pool_.size(),
                                   scratch_.weights);
    const auto& weights = scratch_.weights;
    z = 0.0;
    label = 0;  // reported label = the dominant vote
    double best_weight = -1.0;
    for (std::size_t p = 0; p < pool_.size(); ++p) {
      if (weights[p] > 0.0) z += weights[p] * pool_.at(p).predict(window);
      if (weights[p] > best_weight) {
        best_weight = weights[p];
        label = p;
      }
    }
  } else {
    label = selector_->select(online_window_);
    z = pool_.at(label).predict(window);
  }

  Forecast forecast{normalizer_.inverse(z), label,
                    std::numeric_limits<double>::quiet_NaN()};
  if (resolved_forecasts_ >= config_.uncertainty_warmup()) {
    forecast.uncertainty = std::sqrt(residuals_->value());
  }
  return forecast;
}

void LarPredictor::retrain(std::span<const double> recent_raw_series) {
  train(recent_raw_series);
}

const ml::ZScoreNormalizer& LarPredictor::normalizer() const {
  require_trained();
  return normalizer_;
}

const selection::Selector& LarPredictor::selector() const {
  require_trained();
  return *selector_;
}

const ml::Pca& LarPredictor::pca() const {
  require_trained();
  return pca_;
}

const std::vector<std::size_t>& LarPredictor::training_labels() const {
  require_trained();
  return training_labels_;
}

namespace {

constexpr std::uint8_t kSelectorKnn = 1;
constexpr std::uint8_t kSelectorCentroid = 2;

/// kind byte + projection + classifier of the trained selector.
void save_selector(persist::io::Writer& w, const selection::Selector& selector) {
  if (const auto* knn =
          dynamic_cast<const selection::KnnSelector*>(&selector)) {
    w.u8(kSelectorKnn);
    knn->pca().save(w);
    knn->classifier().save(w);
  } else if (const auto* centroid =
                 dynamic_cast<const selection::CentroidSelector*>(&selector)) {
    w.u8(kSelectorCentroid);
    centroid->pca().save(w);
    centroid->classifier().save(w);
  } else {
    throw StateError("LarPredictor::save_state: unknown selector type");
  }
}

std::unique_ptr<selection::Selector> load_selector(persist::io::Reader& r) {
  // Checked before any payload is parsed: kind 3 was the removed cold-start
  // tier's envelope, whose bytes are not a projection.
  const std::uint8_t kind = r.u8();
  if (kind != kSelectorKnn && kind != kSelectorCentroid) {
    throw persist::CorruptData("LarPredictor: unknown serialized selector kind");
  }
  ml::Pca selector_pca;
  selector_pca.load(r);
  if (kind == kSelectorKnn) {
    ml::KnnClassifier classifier;
    classifier.load(r);
    return std::make_unique<selection::KnnSelector>(std::move(selector_pca),
                                                    std::move(classifier));
  }
  ml::NearestCentroidClassifier classifier;
  classifier.load(r);
  return std::make_unique<selection::CentroidSelector>(std::move(selector_pca),
                                                       std::move(classifier));
}

void save_windowed(persist::io::Writer& w, const stats::WindowedMse& m) {
  w.f64_span(m.raw_buffer());
  w.u64(m.head());
  w.f64(m.sum());
}

void load_windowed(persist::io::Reader& r, stats::WindowedMse& m) {
  auto buffer = r.f64_vector();
  const auto head = static_cast<std::size_t>(r.u64());
  const double sum = r.f64();
  try {
    m.restore(std::move(buffer), head, sum);
  } catch (const Error& e) {
    // An impossible ring state means the payload disagrees with this
    // configuration — surface it as corruption, not a usage error.
    throw persist::CorruptData(e.what());
  }
}

}  // namespace

void LarPredictor::save_state(persist::io::Writer& w) const {
  w.boolean(trained());
  if (!trained()) return;

  normalizer_.save(w);
  pca_.save(w);

  save_selector(w, *selector_);

  w.u64_span(training_labels_);
  w.f64_span(online_window_);
  w.u64(observed_count_);

  w.boolean(pending_forecast_.has_value());
  if (pending_forecast_) w.f64(*pending_forecast_);
  w.boolean(residuals_.has_value());
  if (residuals_) save_windowed(w, *residuals_);
  w.u64(resolved_forecasts_);

  w.u64(online_label_trackers_.size());
  for (const auto& tracker : online_label_trackers_) save_windowed(w, tracker);
  w.u64(online_windows_learned_);

  w.u64(pool_.size());
  for (std::size_t p = 0; p < pool_.size(); ++p) pool_.at(p).save_state(w);
}

void LarPredictor::load_state(persist::io::Reader& r) {
  if (!r.boolean()) {
    // Serialized before training: nothing beyond the construction state.
    selector_.reset();
    return;
  }

  normalizer_.load(r);
  pca_.load(r);

  selector_ = load_selector(r);

  training_labels_ = r.u64_vector();
  online_window_ = r.f64_vector();
  if (online_window_.size() > config_.window) {
    throw persist::CorruptData("LarPredictor: serialized window too long");
  }
  observed_count_ = static_cast<std::size_t>(r.u64());

  pending_forecast_.reset();
  if (r.boolean()) pending_forecast_ = r.f64();
  residuals_.reset();
  if (r.boolean()) {
    residuals_.emplace(std::max<std::size_t>(1, config_.uncertainty_window));
    load_windowed(r, *residuals_);
  }
  resolved_forecasts_ = static_cast<std::size_t>(r.u64());

  const auto trackers = static_cast<std::size_t>(r.u64());
  if (trackers != pool_.size()) {
    throw persist::CorruptData(
        "LarPredictor: serialized tracker count disagrees with pool");
  }
  const std::size_t horizon =
      config_.label_window == 0 ? config_.window : config_.label_window;
  online_label_trackers_.assign(pool_.size(), stats::WindowedMse(horizon));
  for (auto& tracker : online_label_trackers_) load_windowed(r, tracker);
  online_windows_learned_ = static_cast<std::size_t>(r.u64());

  const auto members = static_cast<std::size_t>(r.u64());
  if (members != pool_.size()) {
    throw persist::CorruptData(
        "LarPredictor: serialized pool size disagrees with config");
  }
  for (std::size_t p = 0; p < pool_.size(); ++p) pool_.at(p).load_state(r);
}

}  // namespace larp::core
