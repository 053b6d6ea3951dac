// The traced run's shadow: after the timed section, the sampled series'
// logged calls are replayed through each layer's public API in the engine's
// call order (LarPredictor, PredictionDatabase, QualityAssuror, and the WAL
// codec and writer), with a span around every call.  The replay keeps its
// own copy of every piece of per-series state the engine keeps, so its
// forecasts should equal the engine's bit for bit; how many do is reported,
// never counted as a failure.
#pragma once

#include <filesystem>
#include <optional>

#include "common.hpp"
#include "fleet.hpp"

namespace perfbench {

struct ShadowResult {
  std::uint64_t compared = 0;  // timed engine forecasts the shadow re-made
  std::uint64_t matched = 0;   // ... equal in every bit
  std::uint64_t series_steps = 0;   // timed observe calls replayed
  double mirrored_ns = 0.0;         // self time of the calls the engine makes
  double records_per_series = 0.0;  // PredictionDatabase::size() / live series
  double pca_components = 0.0;      // mean retained PCA components
  std::uint64_t wal_ops = 0;        // timed ops through the shadow WAL codec
};

/// Replays `log` through the layers.  `wal_dir` set: the WAL codec and a
/// WalWriter in that directory (same filesystem as the engine's) are shadowed
/// too, grouping each round's ops as the engine's 16 shards would.
[[nodiscard]] ShadowResult run_shadow(
    const OpLog& log, const larp::serve::EngineConfig& config, Tracer& tracer,
    const std::optional<std::filesystem::path>& wal_dir);

/// Span names the shadow records for calls the engine itself makes; their
/// summed self time per series-step is `trace.shadow_coverage`'s numerator.
[[nodiscard]] const std::vector<std::string>& mirrored_spans();

}  // namespace perfbench
