// Inputs and the closed-loop round driver shared by the workloads.
//
// A fleet is 68 seeds of each of the 60 tracegen catalog (vm, metric) models.
// Every round asks one forecast of each live series and then feeds it one
// sample, in 256-key batches, through either the engine API or a net::Client
// — always one caller waiting on each reply (closed loop).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/client.hpp"
#include "predictors/pool.hpp"
#include "serve/prediction_engine.hpp"

namespace perfbench {

using larp::serve::Observation;
using larp::serve::Prediction;
using larp::tsdb::SeriesKey;

inline constexpr std::size_t kReplicas = 68;
inline constexpr std::size_t kBatch = 256;
/// One series in this many is replayed by the traced run's shadow.
inline constexpr std::size_t kShadowEvery = 16;

struct Model {
  std::string vm;
  std::string metric;
  std::string device;
};
/// The 60 catalog (vm, metric) models, VM-major.
[[nodiscard]] const std::vector<Model>& catalog_models();

/// Seed of one generated trace: the workload seed offsets every stream, so
/// the seed changes the inputs and nothing else.
[[nodiscard]] std::uint64_t trace_seed(std::uint64_t seed, std::uint64_t stream);
[[nodiscard]] std::vector<double> make_values(const Model& model,
                                              std::uint64_t trace_seed,
                                              std::size_t samples);

/// The engine as `larp_cli serve` builds it (paper pool, window 5, k 3, PCA to
/// 0.85 variance, 16 shards, default QA and training cadence), with a fixed
/// worker count.  Durability stays off; callers set it where they want it.
[[nodiscard]] larp::serve::EngineConfig serve_config(std::size_t threads);
[[nodiscard]] larp::predictors::PredictorPool serve_pool();

/// Durability for the WAL-on workloads: the CLI's Sync mode and EveryN policy,
/// except that n is never reached, so no fdatasync reaches the device between
/// snapshots.  On a tmpfs data directory (what the benchmark's design
/// assumes) a sync costs only a syscall; on the reference host's ext4
/// virtual disk one fdatasync took 92-549 us depending on the second, which
/// swamped every WAL-on metric.
[[nodiscard]] larp::serve::DurabilityConfig bench_durability(
    const std::filesystem::path& dir);

/// The calls a workload made for its sampled series, in the order it made
/// them — what the shadow replays.  Predict entries carry the engine's reply.
struct LoggedOp {
  enum Kind : std::uint8_t { kPredict, kObserve, kErase };
  Kind kind = kPredict;
  bool timed = false;         // issued inside the timed section
  bool engine_ready = false;  // predict: the reply's ready flag
  std::uint32_t series = 0;   // index into OpLog::keys
  double value = 0.0;         // observe: the sample; predict: the forecast
};
struct OpLog {
  bool enabled = false;
  std::vector<SeriesKey> keys;
  std::vector<LoggedOp> ops;
  /// ops index where each round starts (the WAL shadow groups per round).
  std::vector<std::size_t> round_starts;
};

/// One side of the request path: the engine in process, or a server over
/// loopback TCP.
class Io {
 public:
  virtual ~Io() = default;
  virtual void predict(std::span<const SeriesKey> keys,
                       std::vector<Prediction>& out) = 0;
  virtual void observe(std::span<const Observation> batch) = 0;
  virtual void erase(const SeriesKey& key) = 0;
  [[nodiscard]] virtual const char* predict_span() const = 0;
  [[nodiscard]] virtual const char* observe_span() const = 0;
};

class EngineIo final : public Io {
 public:
  explicit EngineIo(larp::serve::PredictionEngine& engine) : engine_(engine) {}
  void predict(std::span<const SeriesKey> keys,
               std::vector<Prediction>& out) override {
    engine_.predict_into(keys, out);
  }
  void observe(std::span<const Observation> batch) override {
    engine_.observe(batch);
  }
  void erase(const SeriesKey& key) override { (void)engine_.erase(key); }
  [[nodiscard]] const char* predict_span() const override {
    return "serve.predict";
  }
  [[nodiscard]] const char* observe_span() const override {
    return "serve.observe";
  }

 private:
  larp::serve::PredictionEngine& engine_;
};

class NetIo final : public Io {
 public:
  explicit NetIo(larp::net::Client& client) : client_(client) {}
  void predict(std::span<const SeriesKey> keys,
               std::vector<Prediction>& out) override {
    client_.predict(keys, out);
  }
  void observe(std::span<const Observation> batch) override {
    (void)client_.observe(batch);
  }
  void erase(const SeriesKey&) override {
    throw std::logic_error("the wire protocol has no erase");
  }
  [[nodiscard]] const char* predict_span() const override {
    return "net.predict";
  }
  [[nodiscard]] const char* observe_span() const override {
    return "net.observe";
  }

 private:
  larp::net::Client& client_;
};

/// What one round feeds: parallel arrays over the round's live series, in
/// batch order.  `prev` is each series' previous sample (NaN before its
/// first), `log_index` its OpLog series (-1 when not sampled).  Series in
/// `erase` are torn down after the observes, inside the round.
struct RoundInput {
  std::vector<SeriesKey> keys;
  std::vector<Observation> obs;
  std::vector<double> prev;
  std::vector<std::int32_t> log_index;
  std::vector<std::uint8_t> must_be_ready;
  std::vector<std::size_t> model;  // catalog model of each series
  std::vector<std::size_t> erase;  // indices into keys

  void clear();
  void push(const SeriesKey& key, std::size_t model_index, double value,
            double prev_value, std::int32_t log, bool ready_required);
  [[nodiscard]] std::size_t size() const noexcept { return keys.size(); }
};

/// Accumulated results of timed rounds.
struct RoundTotals {
  std::vector<double> predict_us;
  std::vector<double> observe_us;
  double request_seconds = 0.0;  // sum of request round trips
  std::uint64_t requests = 0;
  // Per catalog model: sums of (forecast - actual)^2 over ready forecasts,
  // and of (previous - actual)^2 over the same forecasts.
  std::vector<double> model_sq_err;
  std::vector<double> model_sq_base;
  std::uint64_t asked = 0;
  std::uint64_t ready = 0;
  std::uint64_t series_steps = 0;
  std::uint64_t rounds = 0;
  double wall_seconds = 0.0;
  std::vector<double> round_seconds;  // wall time of each timed round
  // Traced runs alternate traced and untraced rounds.
  double traced_seconds = 0.0;
  double untraced_seconds = 0.0;
  std::uint64_t traced_rounds = 0;
  std::uint64_t untraced_rounds = 0;
};

/// Failure accounting behind `failed` / `attempted`.
struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;  // the first few, verbatim

  void fail(std::uint64_t ops, const std::string& message);
};

/// Runs rounds against an Io, `batch` keys per request.  Untimed rounds
/// (warm-up, building a crash image) skip the accounting but still feed the
/// op log.
class RoundDriver {
 public:
  RoundDriver(Io& io, Tracer& tracer, OpLog& log, Failures& failures,
              std::size_t batch = kBatch)
      : io_(io), tracer_(tracer), log_(log), failures_(failures), batch_(batch) {}

  /// One round: every key predicted, then every key observed, in batches.
  /// `traced` records spans for this round only.
  void run(const RoundInput& in, bool timed, bool traced, RoundTotals& totals);

 private:
  Io& io_;
  Tracer& tracer_;
  OpLog& log_;
  Failures& failures_;
  std::size_t batch_;
  std::vector<Prediction> out_;
  std::uint64_t request_id_ = 0;
};

}  // namespace perfbench
