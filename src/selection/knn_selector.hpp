// KnnSelector: the LARPredictor's selection strategy (§6.2).
//
// Owns a fitted PCA projection and a k-NN classifier built during the
// training phase (by core::LarPredictor).  select() projects the current
// normalized window into the reduced feature space, finds the k nearest
// labeled training windows, and majority-votes their best-predictor labels.
// No post-step feedback is needed — the knowledge lives in the training
// index, which is exactly the paper's point: only ONE predictor runs per
// test step.
#pragma once

#include "ml/knn.hpp"
#include "ml/pca.hpp"
#include "selection/selector.hpp"

namespace larp::selection {

class KnnSelector final : public Selector {
 public:
  /// Takes the projection and classifier produced by the training phase.
  /// Throws InvalidArgument if either is unfitted.
  KnnSelector(ml::Pca pca, ml::KnnClassifier classifier);

  [[nodiscard]] std::string name() const override { return "LAR(kNN)"; }
  [[nodiscard]] std::size_t select(std::span<const double> window) override;
  /// Neighbour vote shares (count of each label among the k nearest / k),
  /// written into caller-owned storage.  Zero-allocation in steady state:
  /// projection and neighbour search reuse the selector's internal scratch.
  void select_weights_into(std::span<const double> window,
                           std::size_t pool_size,
                           std::vector<double>& out) override;
  /// Projects the window through the training PCA and appends it to the
  /// k-NN index (online learning).
  void learn(std::span<const double> window, std::size_t label) override;
  [[nodiscard]] bool supports_online_learning() const noexcept override {
    return true;
  }
  [[nodiscard]] std::unique_ptr<Selector> clone() const override;

  [[nodiscard]] const ml::Pca& pca() const noexcept { return pca_; }
  [[nodiscard]] const ml::KnnClassifier& classifier() const noexcept {
    return classifier_;
  }

 private:
  ml::Pca pca_;
  ml::KnnClassifier classifier_;
  // Per-instance query scratch.  LarPredictor instances are externally
  // serialized (see core/lar_predictor.hpp's locking contract), so reusing
  // these across select() calls is race-free and keeps the steady-state
  // select path allocation-free.
  linalg::Vector reduced_scratch_;
  ml::NeighborScratch query_scratch_;
};

}  // namespace larp::selection
