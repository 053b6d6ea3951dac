// CentroidSelector: the LAR selection strategy with the nearest-centroid
// classifier substituted for k-NN (§5's "other types of classification
// algorithms"; compared in bench_ablation_classifier).
#pragma once

#include "ml/centroid.hpp"
#include "ml/pca.hpp"
#include "selection/selector.hpp"

namespace larp::selection {

class CentroidSelector final : public Selector {
 public:
  /// Takes the fitted projection and classifier from the training phase.
  CentroidSelector(ml::Pca pca, ml::NearestCentroidClassifier classifier);

  [[nodiscard]] std::string name() const override { return "LAR(centroid)"; }
  [[nodiscard]] std::size_t select(std::span<const double> window) override;
  /// Folds the PCA-projected window into its class centroid (online
  /// learning).
  void learn(std::span<const double> window, std::size_t label) override;
  [[nodiscard]] bool supports_online_learning() const noexcept override {
    return true;
  }
  [[nodiscard]] std::unique_ptr<Selector> clone() const override;

  [[nodiscard]] const ml::Pca& pca() const noexcept { return pca_; }
  [[nodiscard]] const ml::NearestCentroidClassifier& classifier() const noexcept {
    return classifier_;
  }

 private:
  ml::Pca pca_;
  ml::NearestCentroidClassifier classifier_;
  // Reused projection buffer; instances are externally serialized (see the
  // LarPredictor locking contract), so this is race-free.
  linalg::Vector reduced_scratch_;
};

}  // namespace larp::selection
