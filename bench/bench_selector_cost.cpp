// Selector cost/accuracy grid: the NWS-style error-tracking selectors
// (cumulative / windowed / EWMA MSE) head-to-head against the paper's k-NN
// selection and the hindsight oracle.
//
// Two measurements:
//   * select() micro-cost — ns/select and selects/sec for every selector,
//     the k-NN rows at a catalog-typical index size: an argmin over P
//     running errors vs an index query.
//   * accuracy — per-VM-family MSE ratio vs the hindsight oracle over the
//     catalog's test halves, every selector scoring the SAME pool forecasts
//     on the same walk (so the ratio isolates pure selection skill).
//
// Regenerates results/BENCH_selectors.json (reconciled into
// docs/PERFORMANCE.md).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/lar_predictor.hpp"
#include "ml/framing.hpp"
#include "ml/knn.hpp"
#include "ml/normalizer.hpp"
#include "ml/pca.hpp"
#include "predictors/pool.hpp"
#include "selection/knn_selector.hpp"
#include "selection/nws_selector.hpp"
#include "selection/selector.hpp"
#include "tracegen/catalog.hpp"

namespace {

using namespace larp;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kWindow = 5;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Trains the paper pipeline's selection index on `normalized` (labeling
/// walk -> PCA -> 3-NN) and returns the ready selector, exactly what
/// core::LarPredictor::train() installs.
std::unique_ptr<selection::Selector> make_knn_selector(
    predictors::PredictorPool& pool, std::span<const double> normalized,
    ml::KnnBackend backend) {
  const auto labels = core::label_best_predictors(pool, normalized, kWindow);
  const auto framed = ml::frame_supervised(normalized, kWindow);
  ml::Pca pca;
  pca.fit(framed.windows, ml::PcaPolicy{0, 0.85});
  ml::KnnClassifier classifier(3, backend);
  classifier.fit(pca.transform(framed.windows), labels);
  return std::make_unique<selection::KnnSelector>(std::move(pca),
                                                  std::move(classifier));
}

struct CostRow {
  std::string name;
  double ns_per_select = 0.0;
  double selects_per_sec = 0.0;
};

/// One timed pass of select() over a rotating bank of real windows (so
/// index queries see varied inputs); the pick checksum defeats dead-code
/// elimination.  The caller interleaves passes across selectors and keeps
/// each selector's fastest — min-of-reps is the standard robust estimator
/// for micro-costs, and interleaving makes every selector sample the same
/// noise phases of the machine, keeping the cross-selector RATIOS stable
/// even when a run lands on a busy box.
double time_select_once(selection::Selector& selector,
                        const std::vector<std::vector<double>>& windows,
                        std::size_t iterations) {
  // Power-of-two bank so the rotation is a mask, not a divide: the loop
  // overhead must stay well under the cheapest selector being timed.
  const std::size_t mask = windows.size() - 1;
  std::size_t checksum = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    checksum += selector.select(windows[i & mask]);
  }
  const double elapsed = seconds_since(start);
  if (checksum == ~std::size_t{0}) std::printf("(impossible)\n");
  return elapsed;
}

std::vector<CostRow> bench_select_cost(bool quick) {
  // A catalog-typical trace backs both the window bank and the k-NN index
  // (~280 training windows — the index size a per-series selector serves
  // with in the engine).
  const auto trace = tracegen::make_trace("VM4", "CPU_usedsec", /*seed=*/6);
  auto pool = predictors::make_paper_pool(kWindow);
  ml::ZScoreNormalizer normalizer;
  normalizer.fit(trace.values);
  const auto normalized = normalizer.transform(trace.values);
  pool.fit_all(normalized);

  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i + kWindow <= normalized.size() && i < 256; ++i) {
    windows.emplace_back(normalized.begin() + static_cast<std::ptrdiff_t>(i),
                         normalized.begin() +
                             static_cast<std::ptrdiff_t>(i + kWindow));
  }
  // time_select() rotates with a mask — keep the bank a power of two.
  while (windows.size() & (windows.size() - 1)) windows.pop_back();

  const std::size_t pool_size = pool.size();
  // Rep windows are kept short (ms-scale): on a shared box the min-of-reps
  // estimator works best when each rep has little time to absorb noise.
  const std::size_t fast_iters = quick ? 200'000 : 1'000'000;
  const std::size_t index_iters = quick ? 20'000 : 100'000;

  struct Candidate {
    std::string name;
    std::unique_ptr<selection::Selector> selector;
    std::size_t iterations;
  };
  std::vector<Candidate> candidates;
  candidates.push_back(
      {"Cum.MSE",
       std::make_unique<selection::CumulativeMseSelector>(pool_size),
       fast_iters});
  candidates.push_back(
      {"W-Cum.MSE(2)",
       std::make_unique<selection::WindowedCumMseSelector>(pool_size, 2),
       fast_iters});
  candidates.push_back(
      {"EWMA-MSE(0.9)",
       std::make_unique<selection::EwmaMseSelector>(pool_size, 0.9),
       fast_iters});
  candidates.push_back({"kNN(brute)",
                        make_knn_selector(pool, normalized,
                                          ml::KnnBackend::BruteForce),
                        index_iters});
  candidates.push_back({"kNN(kd-tree)",
                        make_knn_selector(pool, normalized,
                                          ml::KnnBackend::KdTree),
                        index_iters});

  // Give the trainable selectors realistic (non-uniform) internal state.
  std::vector<double> forecasts;
  for (auto& candidate : candidates) {
    pool.reset_all();
    for (std::size_t i = 0; i < kWindow; ++i) pool.observe_all(normalized[i]);
    for (std::size_t i = 0; i + kWindow < normalized.size() && i < 64; ++i) {
      const auto win =
          std::span<const double>(normalized).subspan(i, kWindow);
      pool.predict_all_into(win, forecasts);
      (void)candidate.selector->select(win);
      candidate.selector->record(forecasts, normalized[i + kWindow]);
      pool.observe_all(normalized[i + kWindow]);
    }
  }

  // Warm-up pass per selector (first-touch, branch training), off the clock.
  for (auto& candidate : candidates) {
    for (const auto& window : windows) (void)candidate.selector->select(window);
  }
  constexpr std::size_t kRounds = 7;
  std::vector<double> best(candidates.size(), 0.0);
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const double elapsed = time_select_once(*candidates[c].selector, windows,
                                              candidates[c].iterations);
      if (round == 0 || elapsed < best[c]) best[c] = elapsed;
    }
  }

  std::vector<CostRow> rows;
  std::printf("select() micro-cost (catalog index, pool of %zu)\n", pool_size);
  std::printf("  %-22s %12s %16s\n", "selector", "ns/select", "selects/sec");
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    CostRow row;
    row.name = candidates[c].name;
    const auto iters = static_cast<double>(candidates[c].iterations);
    row.ns_per_select = best[c] * 1e9 / iters;
    row.selects_per_sec = iters / best[c];
    rows.push_back(row);
    std::printf("  %-22s %12.1f %16.0f\n", row.name.c_str(),
                row.ns_per_select, row.selects_per_sec);
  }
  return rows;
}

struct FamilyAccuracy {
  std::string family;
  std::size_t traces_scored = 0;
  double oracle_mse = 0.0;  // mean over scored traces
  std::map<std::string, double> mse_ratio;  // selector -> mse / oracle mse
};

/// One trace: train the index half, walk the test half with every selector
/// scoring the SAME pool forecasts; returns per-selector MSE and oracle MSE.
struct TraceScore {
  bool scored = false;
  double oracle_mse = 0.0;
  std::map<std::string, double> mse;
};

TraceScore score_trace(const std::string& vm, const std::string& metric) {
  const auto trace = tracegen::make_trace(vm, metric, /*seed=*/6);
  const std::size_t half = trace.values.size() / 2;
  if (half < kWindow + 8) return {};

  ml::ZScoreNormalizer normalizer;
  normalizer.fit({trace.values.data(), half});
  const auto normalized = normalizer.transform(trace.values);
  auto pool = predictors::make_paper_pool(kWindow);
  pool.fit_all({normalized.data(), half});

  const std::size_t pool_size = pool.size();
  std::vector<std::pair<std::string, std::unique_ptr<selection::Selector>>>
      selectors;
  selectors.emplace_back(
      "Cum.MSE",
      std::make_unique<selection::CumulativeMseSelector>(pool_size));
  selectors.emplace_back(
      "W-Cum.MSE(2)",
      std::make_unique<selection::WindowedCumMseSelector>(pool_size, 2));
  selectors.emplace_back(
      "EWMA-MSE(0.9)",
      std::make_unique<selection::EwmaMseSelector>(pool_size, 0.9));
  selectors.emplace_back(
      "kNN(brute)",
      make_knn_selector(pool, {normalized.data(), half},
                        ml::KnnBackend::BruteForce));

  // Walk the test half; the pool's online state is primed with the last
  // training window so the first test step is causal.
  pool.reset_all();
  for (std::size_t i = half - kWindow; i < half; ++i) {
    pool.observe_all(normalized[i]);
  }
  TraceScore score;
  std::map<std::string, double> sq_sum;
  double oracle_sq_sum = 0.0;
  std::size_t steps = 0;
  std::vector<double> forecasts;
  for (std::size_t i = half - kWindow; i + kWindow < normalized.size(); ++i) {
    const auto win = std::span<const double>(normalized).subspan(i, kWindow);
    const double target = normalized[i + kWindow];
    pool.predict_all_into(win, forecasts);
    bool finite = true;
    for (double f : forecasts) finite = finite && std::isfinite(f);
    if (finite) {
      for (auto& [name, selector] : selectors) {
        const std::size_t pick = selector->select(win);
        const double err = forecasts[pick] - target;
        sq_sum[name] += err * err;
      }
      const std::size_t best = selection::best_forecast_label(forecasts, target);
      const double oracle_err = forecasts[best] - target;
      oracle_sq_sum += oracle_err * oracle_err;
      ++steps;
      for (auto& [name, selector] : selectors) {
        selector->record(forecasts, target);
      }
    }
    pool.observe_all(target);
  }
  if (steps == 0) return {};
  score.oracle_mse = oracle_sq_sum / static_cast<double>(steps);
  // A (near-)zero oracle MSE means a degenerate trace (constant / perfectly
  // predictable) where every ratio explodes; skip it like the paper tables
  // skip degenerate folds.
  if (score.oracle_mse < 1e-12) return {};
  for (auto& [name, sum] : sq_sum) {
    score.mse[name] = sum / static_cast<double>(steps);
  }
  score.scored = true;
  return score;
}

std::vector<FamilyAccuracy> bench_accuracy(bool quick) {
  std::vector<FamilyAccuracy> families;
  std::size_t skipped = 0;
  for (const auto& vm : tracegen::paper_vms()) {
    FamilyAccuracy family;
    family.family = vm.vm_id;
    std::map<std::string, double> ratio_sum;
    double oracle_sum = 0.0;
    std::size_t metrics_used = 0;
    for (const auto& metric : tracegen::paper_metrics()) {
      const auto score = score_trace(vm.vm_id, metric);
      if (!score.scored) {
        ++skipped;
        continue;
      }
      oracle_sum += score.oracle_mse;
      for (const auto& [name, mse] : score.mse) {
        ratio_sum[name] += mse / score.oracle_mse;
      }
      ++metrics_used;
      if (quick && metrics_used >= 2) break;
    }
    if (metrics_used == 0) continue;
    family.traces_scored = metrics_used;
    family.oracle_mse = oracle_sum / static_cast<double>(metrics_used);
    for (const auto& [name, sum] : ratio_sum) {
      family.mse_ratio[name] = sum / static_cast<double>(metrics_used);
    }
    families.push_back(std::move(family));
  }

  std::printf("\ntest-half MSE ratio vs hindsight oracle (lower = better; "
              "1.0 = oracle)\n");
  if (!families.empty()) {
    std::printf("  %-8s %6s", "family", "traces");
    for (const auto& [name, ratio] : families.front().mse_ratio) {
      std::printf(" %20s", name.c_str());
    }
    std::printf("\n");
    for (const auto& family : families) {
      std::printf("  %-8s %6zu", family.family.c_str(),
                  family.traces_scored);
      for (const auto& [name, ratio] : family.mse_ratio) {
        std::printf(" %20.3f", ratio);
      }
      std::printf("\n");
    }
  }
  if (skipped > 0) {
    std::printf("  (%zu degenerate traces skipped: near-zero oracle MSE)\n",
                skipped);
  }
  return families;
}

void write_json(const char* path, const std::vector<CostRow>& cost,
                const std::vector<FamilyAccuracy>& accuracy) {
  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    std::exit(1);
  }
  double knn_ns = 0.0;
  for (const auto& row : cost) {
    if (row.name == "kNN(brute)") knn_ns = row.ns_per_select;
  }
  std::fprintf(out, "{\n    \"select_cost\": [\n");
  for (std::size_t i = 0; i < cost.size(); ++i) {
    const double speedup =
        cost[i].ns_per_select > 0.0 ? knn_ns / cost[i].ns_per_select : 0.0;
    std::fprintf(out,
                 "      {\"selector\": \"%s\", \"ns_per_select\": %.1f, "
                 "\"selects_per_sec\": %.0f, \"speedup_vs_knn_brute\": "
                 "%.1f}%s\n",
                 cost[i].name.c_str(), cost[i].ns_per_select,
                 cost[i].selects_per_sec, speedup,
                 i + 1 < cost.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n    \"mse_ratio_vs_oracle\": [\n");
  for (std::size_t i = 0; i < accuracy.size(); ++i) {
    std::fprintf(out, "      {\"family\": \"%s\", \"traces\": %zu, "
                 "\"oracle_mse\": %.6f",
                 accuracy[i].family.c_str(), accuracy[i].traces_scored,
                 accuracy[i].oracle_mse);
    for (const auto& [name, ratio] : accuracy[i].mse_ratio) {
      std::fprintf(out, ", \"%s\": %.3f", name.c_str(), ratio);
    }
    std::fprintf(out, "}%s\n", i + 1 < accuracy.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n}\n");
  std::fclose(out);
  std::printf("\nselector metrics written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // --json PATH : also emit the measurements as a JSON fragment
  // --quick     : smaller workload (CI smoke)
  const char* json_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH] [--quick]\n", argv[0]);
      return 1;
    }
  }
  larp::bench::banner("Selector cost/accuracy grid",
                      "NWS error tracking vs k-NN selection vs hindsight oracle");
  const auto cost = bench_select_cost(quick);
  const auto accuracy = bench_accuracy(quick);
  std::printf(
      "\nexpected shape: the MSE-tracking selectors sit at a few ns/select\n"
      "(a P-way argmin over running errors) — two orders of magnitude under\n"
      "the k-NN index query — but need every pool member's forecast each\n"
      "step to keep their errors current, which k-NN does not.\n");
  if (json_path) write_json(json_path, cost, accuracy);
  return 0;
}
