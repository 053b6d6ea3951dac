#include "common.hpp"

#include <sys/vfs.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void Tracer::begin(const char* name, std::uint64_t id) {
  std::int64_t kept_index = -1;
  if (kept_.size() < max_kept_) {
    std::int64_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kept_index >= 0) {
        parent = it->kept_index;
        break;
      }
    }
    kept_index = static_cast<std::int64_t>(kept_.size());
    kept_.push_back(Kept{name, id, parent, 0.0, 0.0});
  }
  stack_.push_back(Open{name, id, Clock::now(), 0.0, kept_index});
}

void Tracer::end() {
  const auto now = Clock::now();
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur_ns =
      std::chrono::duration<double, std::nano>(now - open.start).count();
  Stat& s = stats_[open.name];
  ++s.count;
  s.self_ns += dur_ns - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur_ns;
  if (open.kept_index >= 0) {
    Kept& k = kept_[static_cast<std::size_t>(open.kept_index)];
    k.start_us =
        std::chrono::duration<double, std::micro>(open.start - origin_).count();
    k.dur_us = dur_ns / 1000.0;
  }
}

Tracer::Stat Tracer::stat(const std::string& name) const {
  Stat total;
  for (const auto& [key, s] : stats_) {
    if (name != key) continue;
    total.count += s.count;
    total.self_ns += s.self_ns;
  }
  return total;
}

double Tracer::mean_self_ns(const std::string& name) const {
  const Stat s = stat(name);
  return s.count == 0 ? 0.0 : s.self_ns / static_cast<double>(s.count);
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path.string());
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    const std::string name = k.name;
    const std::string cat = name.substr(0, name.find('.'));
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << json_escape(name)
        << "\",\"cat\":\"" << json_escape(cat)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_number(k.start_us)
        << ",\"dur\":" << json_number(k.dur_us) << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << k.parent << ",\"id\":" << k.id << "}}";
  }
  out << "\n]}\n";
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

std::string Metrics::to_json() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(e.name)
        << "\": {\"value\": " << json_number(e.value) << ", \"unit\": \""
        << json_escape(e.unit) << "\"}";
  }
  out << "}";
  return out.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

namespace {

double status_field_mib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("/proc/self/status has no " + field);
}

}  // namespace

double rss_mib() { return status_field_mib("VmRSS"); }
double peak_rss_mib() { return status_field_mib("VmHWM"); }

std::uint64_t dir_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::uint64_t prefixed_bytes(const std::filesystem::path& dir,
                             const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind(prefix, 0) == 0) {
      total += entry.file_size();
    }
  }
  return total;
}

void copy_dir(const std::filesystem::path& from,
              const std::filesystem::path& to) {
  std::filesystem::remove_all(to);
  std::filesystem::create_directories(to.parent_path());
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

bool on_tmpfs(const std::filesystem::path& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return false;
  constexpr long kTmpfsMagic = 0x01021994;
  return static_cast<long>(fs.f_type) == kTmpfsMagic;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
