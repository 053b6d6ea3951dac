// Asserts the ISSUE's zero-allocation contract: once a trained LarPredictor
// has warmed its scratch capacities, the steady-state observe()/predict_next()
// loop performs ZERO heap allocations.  Counting is done by the global
// operator-new override in alloc_counter.cpp (linked only into this binary).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "alloc_counter.hpp"
#include "core/lar_predictor.hpp"
#include "predictors/pool.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace larp::core {
namespace {

std::vector<double> ar1_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  double dev = 0.0;
  for (auto& x : xs) {
    dev = 0.8 * dev + rng.normal(0.0, 5.0);
    x = 50.0 + dev;
  }
  return xs;
}

// Drives a predict/observe loop and returns the allocations counted over the
// measured cycles, after `warmup` unmeasured cycles grow every scratch buffer
// to its steady-state capacity (the residual window alone needs 32 resolved
// forecasts, so warmup must comfortably exceed that).
std::size_t allocations_over_steady_state(LarPredictor& lar,
                                          std::span<const double> live,
                                          std::size_t warmup,
                                          std::size_t measured) {
  std::size_t i = 0;
  for (; i < warmup; ++i) {
    (void)lar.predict_next();
    lar.observe(live[i]);
  }
  larp::testing::AllocationCount bracket;
  for (; i < warmup + measured; ++i) {
    (void)lar.predict_next();
    lar.observe(live[i]);
  }
  return bracket.count();
}

class ZeroAllocSteadyState : public ::testing::TestWithParam<LarConfig> {};

TEST_P(ZeroAllocSteadyState, ObservePredictLoopDoesNotAllocate) {
  const auto train = ar1_series(240, 42);
  const auto live = ar1_series(200, 43);

  LarPredictor lar(predictors::make_paper_pool(5), GetParam());
  lar.train(train);

  const std::size_t allocations =
      allocations_over_steady_state(lar, live, /*warmup=*/80, /*measured=*/100);
  EXPECT_EQ(allocations, 0u)
      << "steady-state observe/predict allocated on the heap";
}

LarConfig config_default() { return LarConfig{}; }

LarConfig config_kdtree() {
  LarConfig config;
  config.knn_backend = ml::KnnBackend::KdTree;
  return config;
}

LarConfig config_soft_vote() {
  LarConfig config;
  config.soft_vote = true;
  return config;
}

LarConfig config_pca_space() {
  LarConfig config;
  config.predict_in_pca_space = true;
  return config;
}

LarConfig config_centroid() {
  LarConfig config;
  config.classifier = ClassifierKind::NearestCentroid;
  return config;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ZeroAllocSteadyState,
    ::testing::Values(config_default(), config_kdtree(), config_soft_vote(),
                      config_pca_space(), config_centroid()),
    [](const auto& info) {
      switch (info.index) {
        case 0: return "BruteForce";
        case 1: return "KdTree";
        case 2: return "SoftVote";
        case 3: return "PcaSpaceWindow";
        default: return "NearestCentroid";
      }
    });

// Sanity check on the instrumentation itself: an allocation inside the
// bracket must be counted, so a passing zero-alloc test cannot be the
// counter silently not working.
TEST(AllocationCounter, CountsInsideBracket) {
  larp::testing::AllocationCount bracket;
  auto* p = new std::vector<double>(128);
  delete p;
  EXPECT_GE(bracket.count(), 1u);
}

// Online learning is the documented exception: growing the classifier index
// must allocate eventually, but only for index growth — this test pins the
// contract that the default path stays clean even right after an
// online-learning run warmed the same scratch.
TEST(ZeroAlloc, OnlineLearningOnlyAllocatesForIndexGrowth) {
  const auto train = ar1_series(240, 7);
  const auto live = ar1_series(400, 8);

  LarConfig config;
  config.online_learning = true;
  LarPredictor lar(predictors::make_paper_pool(5), config);
  lar.train(train);

  // Warm, then measure with online learning active: allocations may happen
  // (index growth), but must be bounded by a few per step, not per-neighbour
  // or per-window temporaries.
  std::size_t i = 0;
  for (; i < 80; ++i) {
    (void)lar.predict_next();
    lar.observe(live[i]);
  }
  larp::testing::AllocationCount bracket;
  const std::size_t measured = 100;
  for (; i < 180; ++i) {
    (void)lar.predict_next();
    lar.observe(live[i]);
  }
  EXPECT_LE(bracket.count(), 4 * measured)
      << "online-learning steps should allocate O(1) for index growth only";
}

// The engine's batched fan-out: once a 2-thread pool is warm, one
// parallel_for whose body captures three references, as
// PredictionEngine::for_each_shard's does, must not touch the heap.
TEST(ZeroAlloc, ThreadPoolFanOutDoesNotAllocate) {
  ThreadPool pool(2);
  std::vector<std::size_t> active(16);
  std::vector<std::vector<std::size_t>> by_shard(16, std::vector<std::size_t>(8));
  std::vector<std::size_t> out(16);
  for (std::size_t s = 0; s < active.size(); ++s) active[s] = s;
  const auto fan_out = [&] {
    pool.parallel_for(0, active.size(), [&active, &by_shard, &out](std::size_t a) {
      out[active[a]] += by_shard[active[a]].size();
    });
  };
  for (int call = 0; call < 100; ++call) fan_out();

  constexpr std::size_t kCalls = 1000;
  larp::testing::AllocationCount bracket;
  for (std::size_t call = 0; call < kCalls; ++call) fan_out();
  const std::size_t allocations = bracket.count();
  EXPECT_EQ(allocations, 0u)
      << static_cast<double>(allocations) / kCalls << " allocations per call";
  EXPECT_EQ(out[0], (100 + kCalls) * 8);
}

}  // namespace
}  // namespace larp::core
