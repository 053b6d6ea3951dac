// LarConfig: the knobs of the LARPredictor pipeline, defaulting to the
// paper's implementation choices (§6–7): prediction window m = 5 (16 for the
// VM1/Table-2 experiment), n = 2 principal components, 3-NN classification.
#pragma once

#include <cstddef>

#include "ml/knn.hpp"
#include "ml/pca.hpp"

namespace larp::core {

/// How training windows are labeled with their "best predictor" (§6.1).
/// The paper states both readings: §7.2.1 labels each window with the expert
/// whose one-step forecast had the smallest absolute error, while §6.1 and
/// Fig. 3 label with the expert that "generates the least MSE" over the
/// window.  Per-step labels are pure noise wherever experts are near-tied
/// (noise-dominated stretches), which poisons the classifier; the windowed
/// reading concentrates labels on the locally dominant expert and is the
/// default (ablated in bench_ablation_labeling).
enum class Labeling {
  StepAbsoluteError,  // §7.2.1 reading: argmin |forecast - actual| per step
  WindowMse,          // §6.1/Fig.3 reading: argmin MSE over the last window
};

/// Classification algorithm of the selector (§5: the methodology "may be
/// generally used with other types of classification algorithms").
enum class ClassifierKind {
  Knn,              // the paper's k-NN (k and backend configured below)
  NearestCentroid,  // one centroid per class; O(P) queries
};

struct LarConfig {
  /// Prediction window / order m ("framed with the prediction window size").
  std::size_t window = 5;

  /// PCA component policy: fixed n = 2 like the paper, or 0 to select by
  /// min_variance_fraction instead.
  std::size_t pca_components = 2;
  double pca_min_variance = 0.9;

  /// Which classifier drives the selection (the paper uses k-NN).
  ClassifierKind classifier = ClassifierKind::Knn;

  /// Neighbours consulted by the k-NN classifier (odd; 3 in the paper).
  std::size_t knn_k = 3;

  /// Neighbour-search backend; brute force matches the paper's Matlab run,
  /// KdTree exercises the §7.3 fast-NN option.
  ml::KnnBackend knn_backend = ml::KnnBackend::BruteForce;

  /// Training-label definition (see Labeling above).
  Labeling labeling = Labeling::WindowMse;
  /// Error window for Labeling::WindowMse; 0 means "use `window` (m)".
  std::size_t label_window = 0;

  /// Number of recent online residuals backing Forecast::uncertainty.
  std::size_t uncertainty_window = 32;

  /// Resolved predict/observe pairs required before Forecast::uncertainty
  /// turns finite: an eighth of the residual window (minimum 1), so shorter
  /// windows warm up proportionally faster.  (The default window of 32
  /// keeps the historical warm-up of 4.)
  [[nodiscard]] std::size_t uncertainty_warmup() const noexcept {
    const std::size_t warmup = uncertainty_window / 8;
    return warmup > 0 ? warmup : 1;
  }

  /// Soft voting (the "probability-based voting" combination strategy of
  /// the paper's §2 citations [16]): instead of running only the
  /// majority-vote winner, the forecast is the neighbour-vote-share-weighted
  /// combination of the voted experts.  Costs running every expert with a
  /// non-zero vote (at most k per step).
  bool soft_vote = false;

  /// Online learning (extension of §8's accuracy future work): when true,
  /// every observed value also labels the window it completes (running the
  /// FULL pool in parallel on that window, like the training phase) and the
  /// labeled window is appended to the classifier's index.  This trades the
  /// paper's single-expert runtime claim for a selector that keeps adapting
  /// without QA-triggered re-training.  The PCA projection stays fixed.
  bool online_learning = false;

  /// Ablation of the Fig.-3-vs-§6.2 ambiguity (DESIGN.md §5): when true,
  /// predictors see the window reconstructed from its PCA projection (only
  /// the retained-variance information), instead of the raw normalized
  /// window the paper's §6.2 describes.
  bool predict_in_pca_space = false;

  [[nodiscard]] ml::PcaPolicy pca_policy() const {
    return ml::PcaPolicy{pca_components, pca_min_variance};
  }
};

}  // namespace larp::core
