// Shared pieces of larp_perfbench: clocks, the span tracer, metric
// collection and the small filesystem and /proc helpers the workloads use.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <unordered_map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Records spans (name, start, end, parent, shared id) around the
/// benchmark's own calls into the library.  Per-name totals and self times are accumulated
/// for every span; the first `max_kept` spans are also kept verbatim for the
/// Chrome trace-event file written at exit.  A disabled tracer records
/// nothing, so untraced code paths pay one branch per span.
class Tracer {
 public:
  struct Stat {
    std::uint64_t count = 0;
    double self_ns = 0.0;
  };

  explicit Tracer(std::size_t max_kept = 50000) : max_kept_(max_kept) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span as a child of the innermost open span.
  void begin(const char* name, std::uint64_t id);
  /// Closes the innermost open span.
  void end();

  /// Stats of one span name (zeroes when the name never occurred).
  [[nodiscard]] Stat stat(const std::string& name) const;
  /// Mean self time of one span name in nanoseconds (0 when absent).
  [[nodiscard]] double mean_self_ns(const std::string& name) const;

  /// Writes the kept spans as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto).
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  struct Open {
    const char* name;
    std::uint64_t id;
    Clock::time_point start;
    double child_ns;
    std::int64_t kept_index;  // -1 when not kept
  };
  struct Kept {
    const char* name;
    std::uint64_t id;
    std::int64_t parent;  // index into kept_, -1 for a root span
    double start_us;
    double dur_us;
  };

  bool enabled_ = false;
  std::size_t max_kept_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  // Keyed by the name literal's address: no string is built per span.
  std::unordered_map<const char*, Stat> stats_;
};

/// RAII span; a no-op when the tracer is null or disabled.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->begin(name, id);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Named metrics with units, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  [[nodiscard]] std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Linear-interpolation quantile of an unsorted sample (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);

/// VmRSS / VmHWM of this process in MiB (from /proc/self/status).
[[nodiscard]] double rss_mib();
[[nodiscard]] double peak_rss_mib();

/// Total size of the regular files under `dir` (recursive).
[[nodiscard]] std::uint64_t dir_bytes(const std::filesystem::path& dir);
/// Total size of the files directly in `dir` whose name starts with `prefix`.
[[nodiscard]] std::uint64_t prefixed_bytes(const std::filesystem::path& dir,
                                           const std::string& prefix);
/// Replaces `to` with a recursive copy of `from`.
void copy_dir(const std::filesystem::path& from, const std::filesystem::path& to);
/// True when `path` lives on a tmpfs mount.
[[nodiscard]] bool on_tmpfs(const std::filesystem::path& path);

[[nodiscard]] std::string json_escape(const std::string& s);
/// A double as JSON: shortest round-trip digits; non-finite values as null.
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
