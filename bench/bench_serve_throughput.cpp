// Serving-layer benchmark backing the PR's two performance claims:
//
//   1. serve::PredictionEngine scales with worker threads: series/sec on a
//      256-series predict+observe workload is measured at 1, N/2 and N
//      threads (N = hardware concurrency).
//   2. the online-learning hot path no longer pays the per-step kd-tree
//      rebuild: KnnClassifier::add with the kd-tree backend is measured at
//      geometrically growing index sizes — the per-add cost must stay flat
//      (amortized O(log N)) instead of growing linearly as it did when every
//      add rebuilt the tree (O(N log N));
//   3. the depth cap defuses adversarial insertion orders: sorted inserts —
//      which would otherwise degenerate the tree to depth ~N/2 — keep both
//      the amortized add cost and the query cost logarithmic.
//
// With --net it additionally drives the epoll front-end end to end: a real
// net::Server on a loopback ephemeral port, real client connections, the
// full frame encode/CRC/decode path — swept over server thread counts to
// produce the 1→N-core scaling curve recorded in BENCH_hotpath.json.
//
// Plain chrono timing like the table/figure benches (exit code 0 always;
// the numbers are the artifact).
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ml/kdtree.hpp"
#include "ml/knn.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/prediction_engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace larp;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Runs the steady-state predict+observe loop on `series` synthetic AR(1)
/// streams and returns series-steps per second.
double engine_throughput(std::size_t threads, std::size_t series,
                         std::size_t steps) {
  serve::EngineConfig config;
  config.lar.window = 5;
  config.shards = 32;
  config.threads = threads;
  config.train_samples = 48;  // short warm-up; the steady state is the metric

  serve::PredictionEngine engine(predictors::make_paper_pool(5), config);

  Rng parent(2007);
  std::vector<tsdb::SeriesKey> keys(series);
  std::vector<Rng> rngs;
  std::vector<double> level(series, 0.0);
  rngs.reserve(series);
  for (std::size_t s = 0; s < series; ++s) {
    keys[s] = {"host" + std::to_string(s / 8), "dev" + std::to_string(s % 8),
               "cpu"};
    rngs.push_back(parent.split(s));
  }
  std::vector<serve::Observation> batch(series);
  const auto fill = [&] {
    for (std::size_t s = 0; s < series; ++s) {
      level[s] = 0.8 * level[s] + rngs[s].normal(0.0, 2.0);
      batch[s] = {keys[s], 50.0 + level[s]};
    }
  };

  for (std::size_t i = 0; i < config.train_samples; ++i) {
    fill();
    engine.observe(batch);
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < steps; ++i) {
    (void)engine.predict(keys);
    fill();
    engine.observe(batch);
  }
  const double elapsed = seconds_since(start);
  return static_cast<double>(series) * static_cast<double>(steps) / elapsed;
}

struct ScalingPoint {
  std::size_t threads = 0;
  double rate = 0.0;
};

// Fixed sweep {1, 2, 4} (plus the core count when larger) so the recorded
// curve always has >= 3 points: on a small machine the over-subscribed
// configs measure the cost of threads the hardware cannot parallelize,
// which is itself part of the honest trajectory.
std::vector<std::size_t> scaling_thread_counts() {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> counts{1, 2, 4};
  if (cores > 4) counts.push_back(cores);
  return counts;
}

std::vector<ScalingPoint> bench_engine_scaling(bool quick) {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::vector<std::size_t> thread_counts = scaling_thread_counts();

  const std::size_t series = quick ? 64 : 256;
  const std::size_t steps = quick ? 8 : 24;
  std::printf("PredictionEngine throughput (%zu series, %zu steps/config)\n",
              series, steps);
  std::printf("%10s %20s %10s\n", "threads", "series-steps/s", "scaling");
  double base = 0.0;
  double best = 0.0;
  std::vector<ScalingPoint> points;
  for (std::size_t threads : thread_counts) {
    const double rate = engine_throughput(threads, series, steps);
    if (base == 0.0) base = rate;
    best = std::max(best, rate);
    points.push_back({threads, rate});
    std::printf("%10zu %20.0f %9.2fx\n", threads, rate, rate / base);
  }
  if (cores == 1) {
    std::printf("single-core machine: thread scaling not measurable here\n");
  } else {
    std::printf("peak scaling 1 -> %zu threads: %.2fx (target > 2x)\n", cores,
                best / base);
  }
  return points;
}

/// Host facts that gate how the committed scaling curve may be read: the
/// monotonic 1 -> N improvement claim only applies when cores > 1, and a
/// non-performance governor adds frequency noise to every number.
struct HostInfo {
  std::size_t cores = 1;
  std::string governor = "unknown";
};

HostInfo host_info() {
  HostInfo info;
  info.cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (std::FILE* f = std::fopen(
          "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), f) != nullptr) {
      std::string g(buf);
      while (!g.empty() && (g.back() == '\n' || g.back() == ' ')) g.pop_back();
      if (!g.empty()) info.governor = g;
    }
    std::fclose(f);
  }
  return info;
}

/// One point of the net sweep: event-loop threads x concurrent connections,
/// with the contention picture attached so a flat spot in the curve can be
/// named (loop imbalance vs shard-lock waits vs out of cores).
struct NetPoint {
  std::size_t threads = 0;
  std::size_t connections = 0;
  double rate = 0.0;  // series-steps/s over the full wire path
  double loop_busy_min = 0.0;  // busiest/idlest loop, fraction of elapsed
  double loop_busy_max = 0.0;
  std::uint64_t contended_locks = 0;
  double lock_wait_seconds = 0.0;
};

/// A real Server on a loopback ephemeral port with `server_threads` epoll
/// loops, driven by `connections` pipelined client connections (each round
/// starts the request on every connection before finishing any) splitting
/// the series between them.  The full wire path: frame encode, CRC, TCP,
/// decode, engine, reply.
NetPoint net_throughput(std::size_t server_threads, std::size_t connections,
                        std::size_t series, std::size_t steps) {
  serve::EngineConfig config;
  config.lar.window = 5;
  config.shards = 32;
  config.threads = server_threads;
  config.train_samples = 48;

  serve::PredictionEngine engine(predictors::make_paper_pool(5), config);
  net::ServerConfig server_config;
  server_config.event_threads = server_threads;
  net::Server server(engine, server_config);
  server.start();
  const std::uint16_t port = server.port();

  const std::size_t per_conn = std::max<std::size_t>(1, series / connections);
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<std::vector<tsdb::SeriesKey>> keys(connections);
  std::vector<std::vector<double>> level(connections);
  std::vector<Rng> rngs;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<net::Client>("127.0.0.1", port));
    keys[c].resize(per_conn);
    level[c].assign(per_conn, 0.0);
    for (std::size_t s = 0; s < per_conn; ++s) {
      keys[c][s] = {"net" + std::to_string(c), "dev" + std::to_string(s % 8),
                    "m" + std::to_string(s)};
    }
    rngs.emplace_back(2007 + c);
  }
  std::vector<serve::Observation> batch(per_conn);
  std::vector<serve::Prediction> predictions;
  std::vector<std::uint64_t> ids(connections);
  const auto fill = [&](std::size_t c) {
    for (std::size_t s = 0; s < per_conn; ++s) {
      level[c][s] = 0.8 * level[c][s] + rngs[c].normal(0.0, 2.0);
      batch[s] = {keys[c][s], 50.0 + level[c][s]};
    }
  };
  const auto round = [&](bool predict) {
    for (std::size_t c = 0; c < connections; ++c) {
      if (predict) {
        ids[c] = clients[c]->start_predict(keys[c]);
      } else {
        fill(c);
        ids[c] = clients[c]->start_observe(batch);
      }
    }
    for (std::size_t c = 0; c < connections; ++c) {
      if (predict) {
        clients[c]->finish_predict(ids[c], per_conn, predictions);
      } else {
        (void)clients[c]->finish_observe(ids[c]);
      }
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < config.train_samples; ++i) {
    round(/*predict=*/false);
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < steps; ++i) {
    round(/*predict=*/true);
    round(/*predict=*/false);
  }
  const double elapsed = seconds_since(start);
  const double wall = seconds_since(wall_start);
  server.stop();

  NetPoint point;
  point.threads = server_threads;
  point.connections = connections;
  point.rate = static_cast<double>(per_conn * connections) *
               static_cast<double>(steps) / elapsed;
  point.loop_busy_min = 1.0;
  for (const auto& loop : server.loop_stats()) {
    const double busy = wall > 0.0 ? loop.busy_seconds / wall : 0.0;
    point.loop_busy_min = std::min(point.loop_busy_min, busy);
    point.loop_busy_max = std::max(point.loop_busy_max, busy);
  }
  const auto engine_stats = engine.stats();
  point.contended_locks = engine_stats.contended_locks;
  point.lock_wait_seconds = engine_stats.lock_wait_seconds;
  return point;
}

std::vector<NetPoint> bench_net_scaling(bool quick) {
  const std::vector<std::size_t> thread_counts = scaling_thread_counts();
  const std::vector<std::size_t> conn_counts =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 8};
  const std::size_t series = quick ? 64 : 256;
  const std::size_t steps = quick ? 8 : 24;
  std::printf("\nloopback server throughput (%zu series, %zu steps/config, "
              "pipelined connections)\n",
              series, steps);
  std::printf("%8s %6s %16s %8s %12s %11s\n", "threads", "conns",
              "series-steps/s", "scaling", "loop busy", "lock wait");
  double base = 0.0;
  std::vector<NetPoint> points;
  for (std::size_t threads : thread_counts) {
    for (std::size_t conns : conn_counts) {
      const NetPoint p = net_throughput(threads, conns, series, steps);
      if (base == 0.0) base = p.rate;
      points.push_back(p);
      std::printf("%8zu %6zu %16.0f %7.2fx %5.0f-%3.0f%% %9.1fms\n",
                  p.threads, p.connections, p.rate, p.rate / base,
                  100.0 * p.loop_busy_min, 100.0 * p.loop_busy_max,
                  1e3 * p.lock_wait_seconds);
    }
  }
  return points;
}

struct AddPoint {
  std::size_t index_size = 0;
  double ns_per_add = 0.0;
  double rebuild_ns = 0.0;
};

std::vector<AddPoint> bench_kdtree_add(bool quick) {
  // Amortized per-add cost, measured the way amortization is defined: grow
  // the index from N/2 to N points so the doubling-rule rebuild and the
  // backing vectors' geometric reallocations are charged against the adds
  // that earned them.  The "rebuild" column is one full O(N log N) build at
  // size N — the price EVERY add used to pay before the incremental-insert
  // fix — so the last column is the per-add speedup the fix delivers.  The
  // amortized cost must stay within a small multiple of log2(N) (the
  // constant drifts with cache misses once the tree outgrows L2) while the
  // rebuild column grows ~N log N.
  std::printf("\nKnnClassifier::add, kd-tree backend (index grown N/2 -> N)\n");
  std::printf("%12s %14s %14s %14s %10s\n", "index size", "ns/add",
              "/log2(N)", "rebuild ns", "speedup");
  std::vector<AddPoint> results;
  std::vector<std::size_t> sizes{1024, 4096, 16384, 65536, 262144};
  if (quick) sizes = {1024, 16384};
  for (const std::size_t n : sizes) {
    Rng rng(n);
    const std::size_t half = n / 2;
    linalg::Matrix points(half, 2);
    for (auto& v : points.data()) v = rng.uniform(-10, 10);
    std::vector<std::size_t> labels(half);
    for (std::size_t i = 0; i < half; ++i) labels[i] = i % 3;
    ml::KnnClassifier knn(3, ml::KnnBackend::KdTree);
    knn.fit(std::move(points), std::move(labels));

    std::vector<std::array<double, 2>> adds(half);
    for (auto& p : adds) p = {rng.uniform(-10, 10), rng.uniform(-10, 10)};
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < half; ++i) {
      knn.add(adds[i], i % 3);
    }
    const double ns_per_add =
        seconds_since(start) * 1e9 / static_cast<double>(half);

    // The old cost of one add: rebuild the whole N-point tree from scratch.
    linalg::Matrix full(n, 2);
    for (auto& v : full.data()) v = rng.uniform(-10, 10);
    start = std::chrono::steady_clock::now();
    const ml::KdTree rebuilt(full);
    const double rebuild_ns = seconds_since(start) * 1e9;

    const double log_n = std::log2(static_cast<double>(n));
    std::printf("%12zu %14.0f %14.1f %14.0f %9.0fx\n", n, ns_per_add,
                ns_per_add / log_n, rebuild_ns, rebuild_ns / ns_per_add);
    results.push_back({n, ns_per_add, rebuild_ns});
  }
  return results;
}

struct AdversarialPoint {
  std::size_t index_size = 0;
  double ns_per_add = 0.0;  // sorted-order adds, depth cap active
  double query_ns = 0.0;    // one 3-NN query after the sorted growth
  std::size_t max_depth = 0;
  std::size_t depth_limit = 0;
};

std::vector<AdversarialPoint> bench_kdtree_adversarial(bool quick) {
  // Sorted insertion is the kd-tree's worst case: every point descends the
  // same spine, so without the depth cap the tree degenerates to depth ~N/2
  // and BOTH adds and queries go O(N).  With the cap the add column stays
  // near the random-order cost (the occasional capped rebuild amortizes to
  // O(N) total) and the query column stays O(log N) — max_depth is printed
  // against the enforced limit as the proof.
  std::printf("\nKdTree::insert, adversarial sorted order (depth cap active)\n");
  std::printf("%12s %14s %14s %10s %8s\n", "index size", "ns/add",
              "query ns", "max depth", "limit");
  std::vector<AdversarialPoint> results;
  std::vector<std::size_t> sizes{1024, 8192, 65536};
  if (quick) sizes = {1024, 8192};
  for (const std::size_t n : sizes) {
    ml::KdTree tree;
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const double v = static_cast<double>(i);
      const std::array<double, 2> point{v, v};
      tree.insert(point);
    }
    const double ns_per_add =
        seconds_since(start) * 1e9 / static_cast<double>(n);

    Rng rng(n);
    const std::size_t queries = quick ? 256 : 2048;
    start = std::chrono::steady_clock::now();
    double sink = 0.0;
    for (std::size_t q = 0; q < queries; ++q) {
      const std::array<double, 2> probe{rng.uniform(0, double(n)),
                                        rng.uniform(0, double(n))};
      sink += tree.nearest(probe, 3).front().squared_distance;
    }
    const double query_ns =
        seconds_since(start) * 1e9 / static_cast<double>(queries);
    if (sink < 0) std::printf("impossible\n");  // keep the loop observable

    AdversarialPoint p{n, ns_per_add, query_ns, tree.max_depth(),
                       ml::KdTree::depth_limit(n)};
    std::printf("%12zu %14.0f %14.0f %10zu %8zu\n", p.index_size, p.ns_per_add,
                p.query_ns, p.max_depth, p.depth_limit);
    results.push_back(p);
  }
  return results;
}

void write_json(const char* path, const std::vector<ScalingPoint>& scaling,
                const std::vector<NetPoint>& net_scaling,
                const std::vector<AddPoint>& adds,
                const std::vector<AdversarialPoint>& adversarial) {
  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    std::exit(1);
  }
  const HostInfo host = host_info();
  std::fprintf(out,
               "{\n    \"host\": {\"cores\": %zu, \"governor\": \"%s\"},\n",
               host.cores, host.governor.c_str());
  std::fprintf(out, "    \"engine_scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    std::fprintf(out,
                 "      {\"threads\": %zu, \"series_steps_per_sec\": %.0f}%s\n",
                 scaling[i].threads, scaling[i].rate,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n    \"net_scaling\": [\n");
  for (std::size_t i = 0; i < net_scaling.size(); ++i) {
    const NetPoint& p = net_scaling[i];
    // On a single-core host the point is tagged so downstream dashboards
    // never mistake scheduling pressure for a scaling regression.
    std::fprintf(out,
                 "      {\"threads\": %zu, \"connections\": %zu, "
                 "\"series_steps_per_sec\": %.0f, "
                 "\"loop_busy_min\": %.3f, \"loop_busy_max\": %.3f, "
                 "\"contended_locks\": %llu, \"lock_wait_seconds\": %.6f%s}%s\n",
                 p.threads, p.connections, p.rate, p.loop_busy_min,
                 p.loop_busy_max,
                 static_cast<unsigned long long>(p.contended_locks),
                 p.lock_wait_seconds,
                 host.cores == 1
                     ? ", \"warning\": \"single-core host: loops, engine "
                       "workers, and loadgen share one core\""
                     : "",
                 i + 1 < net_scaling.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n    \"kdtree_add\": [\n");
  for (std::size_t i = 0; i < adds.size(); ++i) {
    std::fprintf(out,
                 "      {\"index_size\": %zu, \"ns_per_add\": %.0f, "
                 "\"rebuild_ns\": %.0f}%s\n",
                 adds[i].index_size, adds[i].ns_per_add, adds[i].rebuild_ns,
                 i + 1 < adds.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n    \"kdtree_adversarial\": [\n");
  for (std::size_t i = 0; i < adversarial.size(); ++i) {
    std::fprintf(out,
                 "      {\"index_size\": %zu, \"ns_per_add\": %.0f, "
                 "\"query_ns\": %.0f, \"max_depth\": %zu, "
                 "\"depth_limit\": %zu}%s\n",
                 adversarial[i].index_size, adversarial[i].ns_per_add,
                 adversarial[i].query_ns, adversarial[i].max_depth,
                 adversarial[i].depth_limit,
                 i + 1 < adversarial.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n}\n");
  std::fclose(out);
  std::printf("\nserve metrics written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // --json PATH : also emit the measurements as a JSON fragment
  // --quick     : smaller workload (CI smoke)
  // --net       : also sweep the loopback epoll server (net_scaling)
  const char* json_path = nullptr;
  bool quick = false;
  bool net = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--net") {
      net = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH] [--quick] [--net]\n",
                   argv[0]);
      return 1;
    }
  }
  std::printf("================================================================\n");
  std::printf("bench_serve_throughput — sharded serving layer + online kd-tree\n");
  std::printf("================================================================\n\n");
  const HostInfo host = host_info();
  std::printf("host: %zu cores, cpufreq governor %s\n\n", host.cores,
              host.governor.c_str());
  if (net && host.cores == 1) {
    std::fprintf(stderr,
                 "warning: --net on a single-core host — the server event "
                 "loops, engine workers, and the in-process loadgen all share "
                 "one core, so the net_scaling numbers measure scheduling "
                 "pressure, not scaling; treat them as smoke coverage only\n");
  }
  const auto scaling = bench_engine_scaling(quick);
  const auto net_scaling =
      net ? bench_net_scaling(quick) : std::vector<NetPoint>{};
  const auto adds = bench_kdtree_add(quick);
  const auto adversarial = bench_kdtree_adversarial(quick);
  if (json_path) {
    write_json(json_path, scaling, net_scaling, adds, adversarial);
  }
  return 0;
}
