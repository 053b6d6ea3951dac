#include "fleet.hpp"

#include <cmath>
#include <exception>

#include "tracegen/catalog.hpp"

namespace perfbench {

const std::vector<Model>& catalog_models() {
  static const std::vector<Model> models = [] {
    std::vector<Model> out;
    for (const auto& vm : larp::tracegen::paper_vms()) {
      for (const auto& metric : larp::tracegen::paper_metrics()) {
        out.push_back(
            Model{vm.vm_id, metric, larp::tracegen::device_of_metric(metric)});
      }
    }
    return out;
  }();
  return models;
}

std::uint64_t trace_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): distinct streams of distinct seeds never
  // share a trace.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<double> make_values(const Model& model, std::uint64_t seed,
                                std::size_t samples) {
  return larp::tracegen::make_trace(model.vm, model.metric, seed, samples)
      .values;
}

larp::serve::EngineConfig serve_config(std::size_t threads) {
  larp::serve::EngineConfig config;
  config.lar.window = 5;
  config.lar.knn_k = 3;
  config.lar.pca_components = 0;
  config.lar.pca_min_variance = 0.85;
  config.shards = 16;
  config.threads = threads;
  return config;
}

larp::serve::DurabilityConfig bench_durability(const std::filesystem::path& dir) {
  larp::serve::DurabilityConfig durability;
  durability.data_dir = dir;
  durability.wal.mode = larp::persist::DurabilityMode::Sync;
  durability.wal.fsync = larp::persist::FsyncPolicy::EveryN;
  durability.wal.fsync_every_n = std::size_t{1} << 40;
  return durability;
}

larp::predictors::PredictorPool serve_pool() {
  return larp::predictors::make_paper_pool(5);
}

void RoundInput::clear() {
  keys.clear();
  obs.clear();
  prev.clear();
  log_index.clear();
  must_be_ready.clear();
  model.clear();
  erase.clear();
}

void RoundInput::push(const SeriesKey& key, std::size_t model_index,
                      double value, double prev_value, std::int32_t log,
                      bool ready_required) {
  keys.push_back(key);
  model.push_back(model_index);
  obs.push_back(Observation{key, value});
  prev.push_back(prev_value);
  log_index.push_back(log);
  must_be_ready.push_back(ready_required ? 1 : 0);
}

void Failures::fail(std::uint64_t ops, const std::string& message) {
  failed += ops;
  if (messages.size() < 20) messages.push_back(message);
}

void RoundDriver::run(const RoundInput& in, bool timed, bool traced,
                      RoundTotals& totals) {
  const bool was_enabled = tracer_.enabled();
  tracer_.set_enabled(traced);
  if (log_.enabled) log_.round_starts.push_back(log_.ops.size());
  const std::size_t n = in.size();
  const auto round_start = Clock::now();
  {
    Span round_span(&tracer_, "round", totals.rounds);
    for (std::size_t lo = 0; lo < n; lo += batch_) {
      const std::size_t count = std::min(batch_, n - lo);
      const std::span<const SeriesKey> keys(in.keys.data() + lo, count);
      failures_.attempted += count;
      const auto t0 = Clock::now();
      bool ok = true;
      try {
        Span span(&tracer_, io_.predict_span(), ++request_id_);
        io_.predict(keys, out_);
      } catch (const std::exception& e) {
        ok = false;
        failures_.fail(count, std::string("predict request: ") + e.what());
      }
      const auto t1 = Clock::now();
      if (timed) {
        totals.predict_us.push_back(seconds_between(t0, t1) * 1e6);
        totals.request_seconds += seconds_between(t0, t1);
        ++totals.requests;
      }
      if (!ok) continue;
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t i = lo + j;
        const Prediction& p = out_[j];
        if (p.ready && !std::isfinite(p.value)) {
          failures_.fail(1, "non-finite forecast for " + in.keys[i].to_string());
        } else if (!p.ready && in.must_be_ready[i] != 0) {
          failures_.fail(1, "no forecast for trained series " +
                                in.keys[i].to_string());
        }
        if (timed) {
          ++totals.asked;
          if (p.ready && std::isfinite(p.value)) {
            ++totals.ready;
            const double actual = in.obs[i].value;
            if (std::isfinite(in.prev[i])) {
              const double err = p.value - actual;
              const double base = in.prev[i] - actual;
              const std::size_t k = in.model[i];
              if (k >= totals.model_sq_err.size()) {
                totals.model_sq_err.resize(k + 1, 0.0);
                totals.model_sq_base.resize(k + 1, 0.0);
              }
              totals.model_sq_err[k] += err * err;
              totals.model_sq_base[k] += base * base;
            }
          }
        }
        if (log_.enabled && in.log_index[i] >= 0) {
          log_.ops.push_back(LoggedOp{LoggedOp::kPredict, timed, p.ready,
                                      static_cast<std::uint32_t>(in.log_index[i]),
                                      p.value});
        }
      }
    }
    for (std::size_t lo = 0; lo < n; lo += batch_) {
      const std::size_t count = std::min(batch_, n - lo);
      const std::span<const Observation> batch(in.obs.data() + lo, count);
      failures_.attempted += count;
      const auto t0 = Clock::now();
      try {
        Span span(&tracer_, io_.observe_span(), ++request_id_);
        io_.observe(batch);
      } catch (const std::exception& e) {
        failures_.fail(count, std::string("observe request: ") + e.what());
      }
      const auto t1 = Clock::now();
      if (timed) {
        totals.observe_us.push_back(seconds_between(t0, t1) * 1e6);
        totals.request_seconds += seconds_between(t0, t1);
        ++totals.requests;
      }
      if (log_.enabled) {
        for (std::size_t i = lo; i < lo + count; ++i) {
          if (in.log_index[i] < 0) continue;
          log_.ops.push_back(LoggedOp{LoggedOp::kObserve, timed, false,
                                      static_cast<std::uint32_t>(in.log_index[i]),
                                      in.obs[i].value});
        }
      }
    }
    for (const std::size_t i : in.erase) {
      ++failures_.attempted;
      try {
        Span span(&tracer_, "serve.erase", ++request_id_);
        io_.erase(in.keys[i]);
      } catch (const std::exception& e) {
        failures_.fail(1, std::string("erase: ") + e.what());
      }
      if (log_.enabled && in.log_index[i] >= 0) {
        log_.ops.push_back(LoggedOp{LoggedOp::kErase, timed, false,
                                    static_cast<std::uint32_t>(in.log_index[i]),
                                    0.0});
      }
    }
  }
  const double wall = seconds_between(round_start, Clock::now());
  tracer_.set_enabled(was_enabled);
  if (!timed) return;
  ++totals.rounds;
  totals.series_steps += n;
  totals.wall_seconds += wall;
  totals.round_seconds.push_back(wall);
  if (traced) {
    totals.traced_seconds += wall;
    ++totals.traced_rounds;
  } else {
    totals.untraced_seconds += wall;
    ++totals.untraced_rounds;
  }
}

}  // namespace perfbench
