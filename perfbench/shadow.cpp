#include "shadow.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "core/lar_predictor.hpp"
#include "ml/framing.hpp"
#include "ml/kdtree.hpp"
#include "ml/knn.hpp"
#include "ml/normalizer.hpp"
#include "ml/pca.hpp"
#include "persist/wal.hpp"
#include "qa/quality_assuror.hpp"
#include "selection/knn_selector.hpp"
#include "serve/wal_codec.hpp"
#include "tsdb/prediction_db.hpp"

namespace perfbench {
namespace {

using larp::Timestamp;

// Every n-th training pass is also decomposed into its stages (fit_all,
// labeling, PCA fit, k-NN fit) on copies; decomposing all of them would
// double the shadow's cost for no better estimate.
constexpr std::size_t kTrainBreakdownEvery = 4;

// Per-series state, mirroring PredictionEngine::SeriesState.
struct State {
  std::deque<double> history;
  std::optional<larp::core::LarPredictor> predictor;
  Timestamp next_ts = 0;
  std::size_t since_audit = 0;
  bool retrain_requested = false;
  // Breakdown inputs: a clone of the trained selector, and the normalized
  // online window exactly as LarPredictor keeps it.
  std::unique_ptr<larp::selection::Selector> selector;
  std::vector<double> window;
};

class Shadow {
 public:
  Shadow(const OpLog& log, const larp::serve::EngineConfig& config,
         Tracer& tracer)
      : log_(log),
        config_(config),
        tracer_(tracer),
        pool_(serve_pool()),
        qa_(db_, config.quality) {}

  ShadowResult run() {
    for (const LoggedOp& op : log_.ops) {
      // Ops from before the timed rounds only rebuild state: the layer
      // timings cover the timed section, like the engine time they are
      // compared with.
      tracer_.set_enabled(op.timed);
      const std::uint64_t id = span_id(op.series);
      switch (op.kind) {
        case LoggedOp::kPredict: {
          Span s(&tracer_, "shadow.predict", id);
          predict(op);
          break;
        }
        case LoggedOp::kObserve: {
          Span s(&tracer_, "shadow.observe", id);
          observe(op.series, op.value);
          if (op.timed) ++result_.series_steps;
          break;
        }
        case LoggedOp::kErase: {
          Span s(&tracer_, "shadow.erase", id);
          erase(op.series);
          break;
        }
      }
    }
    std::size_t trained = 0;
    double components = 0.0;
    for (const auto& [series, state] : states_) {
      if (!state.predictor) continue;
      ++trained;
      components += static_cast<double>(state.predictor->pca().components());
    }
    result_.pca_components = trained == 0 ? 0.0 : components / trained;
    result_.records_per_series =
        states_.empty() ? 0.0
                        : static_cast<double>(db_.size()) /
                              static_cast<double>(states_.size());
    return result_;
  }

 private:
  [[nodiscard]] std::uint64_t span_id(std::uint32_t series) {
    const auto it = states_.find(series);
    const Timestamp ts = it == states_.end() ? 0 : it->second.next_ts;
    return (static_cast<std::uint64_t>(series) << 24) |
           static_cast<std::uint64_t>(ts);
  }

  // PredictionEngine::forecast.
  void predict(const LoggedOp& op) {
    const SeriesKey& key = log_.keys[op.series];
    const auto it = states_.find(op.series);
    const bool ready = it != states_.end() && it->second.predictor.has_value();
    double value = 0.0;
    if (ready) {
      State& state = it->second;
      larp::core::LarPredictor::Forecast f;
      {
        Span s(&tracer_, "core.predict_next");
        f = state.predictor->predict_next();
      }
      bool recorded;
      {
        Span s(&tracer_, "tsdb.find");
        recorded = db_.find(key, state.next_ts).has_value();
      }
      if (!recorded) {
        Span s(&tracer_, "tsdb.record_prediction");
        db_.record_prediction(key, state.next_ts, f.value, f.label);
      }
      value = f.value;
      predict_breakdown(state);
    }
    if (op.timed) {
      ++result_.compared;
      if (ready == op.engine_ready &&
          (!ready || std::memcmp(&value, &op.value, sizeof value) == 0)) {
        ++result_.matched;
      }
    }
  }

  // The same selection on the selector's own parts: Selector::select on a
  // clone, then its PCA projection, k-NN vote, and the chosen expert.
  void predict_breakdown(State& state) {
    const auto* knn =
        dynamic_cast<const larp::selection::KnnSelector*>(state.selector.get());
    if (knn == nullptr || state.window.size() != config_.lar.window) return;
    std::size_t label;
    {
      Span s(&tracer_, "selection.select");
      label = state.selector->select(state.window);
    }
    reduced_.resize(knn->pca().components());
    {
      Span s(&tracer_, "ml.pca_transform");
      knn->pca().transform_into(state.window, std::span<double>(reduced_));
    }
    {
      Span s(&tracer_, "ml.knn_classify");
      label = knn->classifier().classify(reduced_, scratch_);
    }
    {
      Span s(&tracer_, "predictors.predict");
      (void)state.predictor->pool().at(label).predict(state.window);
    }
  }

  // PredictionEngine::absorb.
  void observe(std::uint32_t series, double value) {
    const SeriesKey& key = log_.keys[series];
    State& state = states_[series];
    if (state.predictor) {
      std::optional<larp::tsdb::PredictionRecord> record;
      {
        Span s(&tracer_, "tsdb.find");
        record = db_.find(key, state.next_ts);
      }
      if (record && !record->resolved()) {
        Span s(&tracer_, "tsdb.record_observation");
        db_.record_observation(key, state.next_ts, value);
      }
      {
        Span s(&tracer_, "core.observe");
        state.predictor->observe(value);
      }
      state.window.push_back(state.predictor->normalizer().transform(value));
      if (state.window.size() > config_.lar.window) {
        state.window.erase(state.window.begin());
      }
    }
    state.history.push_back(value);
    while (state.history.size() > config_.history_capacity) {
      state.history.pop_front();
    }
    ++state.next_ts;

    if (!state.predictor && state.history.size() >= config_.train_samples) {
      train(key, state, /*is_retrain=*/false);
      return;
    }
    if (state.predictor && config_.audit_every > 0 &&
        ++state.since_audit >= config_.audit_every) {
      state.since_audit = 0;
      {
        Span s(&tracer_, "tsdb.latest_resolved");
        (void)db_.latest_resolved(key, config_.quality.audit_window);
      }
      larp::qa::AuditReport report;
      {
        Span s(&tracer_, "qa.audit");
        report = qa_.audit(key);
      }
      if (report.retrain_ordered) state.retrain_requested = true;
      if (state.retrain_requested) train(key, state, /*is_retrain=*/true);
    }
  }

  // PredictionEngine::train_series.
  void train(const SeriesKey& key, State& state, bool is_retrain) {
    const std::size_t take = std::min(state.history.size(), config_.train_samples);
    const std::vector<double> recent(state.history.end() - take,
                                     state.history.end());
    if (!is_retrain) state.predictor.emplace(pool_.clone(), config_.lar);
    {
      Span s(&tracer_, "core.train");
      if (is_retrain) {
        state.predictor->retrain(recent);
      } else {
        state.predictor->train(recent);
      }
    }
    if (is_retrain) {
      Span s(&tracer_, "tsdb.prune_before");
      db_.prune_before(key, state.next_ts + 1);
    }
    state.retrain_requested = false;
    state.selector = state.predictor->selector().clone();
    const auto normalized = state.predictor->normalizer().transform(recent);
    state.window.assign(normalized.end() - config_.lar.window, normalized.end());
    if (trains_++ % kTrainBreakdownEvery == 0) train_breakdown(recent);
  }

  // LarPredictor::train's stages, each on a copy.
  void train_breakdown(const std::vector<double>& recent) {
    const auto& lar = config_.lar;
    larp::ml::ZScoreNormalizer normalizer;
    normalizer.fit(recent);
    const auto z = normalizer.transform(recent);
    auto pool = pool_.clone();
    {
      Span s(&tracer_, "predictors.fit_all");
      pool.fit_all(z);
    }
    std::vector<std::size_t> labels;
    {
      Span s(&tracer_, "core.label");
      labels = larp::core::label_best_predictors(pool, z, lar.window,
                                                 lar.labeling, lar.label_window);
    }
    const auto framed = larp::ml::frame_supervised(z, lar.window);
    larp::ml::Pca pca;
    {
      Span s(&tracer_, "ml.pca_fit");
      pca.fit(framed.windows, lar.pca_policy());
    }
    auto reduced = pca.transform(framed.windows);
    larp::ml::KnnClassifier classifier(lar.knn_k, lar.knn_backend);
    {
      Span s(&tracer_, "ml.knn_fit");
      classifier.fit(std::move(reduced), std::move(labels));
    }
  }

  // PredictionEngine::erase_locked.
  void erase(std::uint32_t series) {
    states_.erase(series);
    Span s(&tracer_, "tsdb.erase_stream");
    db_.erase_stream(log_.keys[series]);
  }

  const OpLog& log_;
  const larp::serve::EngineConfig& config_;
  Tracer& tracer_;
  larp::predictors::PredictorPool pool_;
  larp::tsdb::PredictionDatabase db_;
  larp::qa::QualityAssuror qa_;
  std::unordered_map<std::uint32_t, State> states_;
  std::vector<double> reduced_;
  larp::ml::NeighborScratch scratch_;
  std::size_t trains_ = 0;
  ShadowResult result_;
};

// The engine's WAL write path for the sampled ops: per round, ops grouped as
// one shard's share of a 256-key batch, each group encoded as one block and
// staged + committed as one group.
std::uint64_t shadow_wal(const OpLog& log,
                         const larp::serve::EngineConfig& config, Tracer& tracer,
                         const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  larp::persist::WalWriter writer(dir, 0, config.durability.wal);
  larp::serve::WalPayloadCodec codec;
  const std::size_t group = std::max<std::size_t>(1, kBatch / config.shards);
  std::vector<const LoggedOp*> pending;
  std::uint64_t ops = 0;
  const auto flush = [&] {
    if (pending.empty()) return;
    // Every group is encoded (the codec's state runs on across groups), but
    // only timed groups are timed.
    tracer.set_enabled(pending.front()->timed);
    if (pending.front()->timed) ops += pending.size();
    std::span<const std::byte> payload;
    {
      Span s(&tracer, "persist.wal_encode");
      codec.begin_block(pending.size());
      for (const LoggedOp* op : pending) {
        const SeriesKey& key = log.keys[op->series];
        switch (op->kind) {
          case LoggedOp::kPredict: codec.add_predict(key); break;
          case LoggedOp::kObserve: codec.add_observe(key, op->value); break;
          case LoggedOp::kErase: codec.add_erase(key); break;
        }
      }
      payload = codec.finish_block();
    }
    {
      Span s(&tracer, "persist.wal_commit");
      (void)writer.stage(payload, pending.size());
      writer.commit();
    }
    pending.clear();
  };
  for (std::size_t r = 0; r < log.round_starts.size(); ++r) {
    const std::size_t begin = log.round_starts[r];
    const std::size_t end = r + 1 < log.round_starts.size()
                                ? log.round_starts[r + 1]
                                : log.ops.size();
    for (std::size_t i = begin; i < end; ++i) {
      const LoggedOp& op = log.ops[i];
      if (!pending.empty() && (pending.front()->kind != op.kind ||
                               pending.front()->timed != op.timed)) {
        flush();
      }
      pending.push_back(&op);
      if (pending.size() == group) flush();
    }
    flush();
  }
  writer.flush();
  return ops;
}

}  // namespace

const std::vector<std::string>& mirrored_spans() {
  static const std::vector<std::string> names = {
      "core.predict_next",       "core.observe",        "core.train",
      "tsdb.find",               "tsdb.record_prediction",
      "tsdb.record_observation", "tsdb.prune_before",   "tsdb.erase_stream",
      "qa.audit",                "persist.wal_encode",  "persist.wal_commit"};
  return names;
}

ShadowResult run_shadow(const OpLog& log,
                        const larp::serve::EngineConfig& config, Tracer& tracer,
                        const std::optional<std::filesystem::path>& wal_dir) {
  Shadow shadow(log, config, tracer);
  ShadowResult result = shadow.run();
  if (wal_dir) result.wal_ops = shadow_wal(log, config, tracer, *wal_dir);
  tracer.set_enabled(false);
  for (const auto& name : mirrored_spans()) {
    result.mirrored_ns += tracer.stat(name).self_ns;
  }
  return result;
}

}  // namespace perfbench
