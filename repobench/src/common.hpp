#pragma once
// Shared plumbing of the repository benchmark: run options, the metric sink,
// order statistics, seeded derivation and the check ledger.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace repobench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";  // sha256 prefix over src/
  std::string benchmark_json = "BENCHMARK.json";   // metric names and units
  std::string layers_json = "repobench/LAYERS.json";  // layer assignment
};

/// Ordered name → (value, unit) map. Insertion order is the print order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    items_.push_back({name, value, unit});
  }
  void merge(const Metrics& other) {
    for (const auto& m : other.items_) set(m.name, m.value, m.unit);
  }
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Item>& items() const { return items_; }
  double get(const std::string& name) const {
    for (const auto& m : items_)
      if (m.name == name) return m.value;
    return std::nan("");
  }

 private:
  std::vector<Item> items_;
};

/// Check ledger: every failed output check is recorded with a reason; the
/// run is correct only when the ledger is empty.
class Checks {
 public:
  void fail(const std::string& what) {
    if (failures_.size() < 20) failures_.push_back(what);
    ++count_;
  }
  void expect(bool ok, const std::string& what) {
    ++checked_;
    if (!ok) fail(what);
  }
  bool ok() const { return count_ == 0; }
  std::size_t failures() const { return count_; }
  std::size_t checked() const { return checked_; }
  const std::vector<std::string>& first_failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
  std::size_t count_ = 0;
  std::size_t checked_ = 0;
};

/// What one pass of a workload produced.
struct PassResult {
  Metrics e2e;     // end-to-end metrics of this pass
  Metrics layers;  // per-layer metrics observable from this pass
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Work units (responses, or solver samples) completed in the timed phase
  /// and its summed wall time: the tracing-overhead comparison divides one
  /// by the other in both passes.
  double timed_units = 0.0;
  double timed_wall_s = 0.0;
  /// Peak resident memory of the workload proper (see reset_peak_rss()).
  double peak_rss_mb = 0.0;
  /// Model-time TTS99 of the pass's hardware-sa solves (deterministic per
  /// seed; see main.cpp for why it is not an end-to-end metric).
  double model_tts99_s = 0.0;
  /// Job label → report digest (wall clock excluded), for the traced vs
  /// untraced comparison.
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  /// Free-form attribution lines (configuration, shares, paper reference).
  std::vector<std::string> notes;
};

/// Deterministic 64-bit derivation of a sub-seed from the run seed and a tag.
inline std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag) {
  std::uint64_t state = seed ^ 0x5EEDBA5E0F00D5ULL;
  for (const unsigned char c : tag) {
    state ^= c;
    state = cnash::util::splitmix64(state);
  }
  return cnash::util::splitmix64(state);
}

/// FNV-1a 64 over a byte range.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Nearest-rank quantile of an already sorted sample (q in [0, 1]).
inline double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::nan("");
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(sorted.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return sorted[i];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Time to reach a 99 % chance of at least one success, given the time one
/// sample takes and the per-sample success probability. One sample is the
/// floor (p = 1 still costs one sample); p = 0 is unbounded.
inline double tts99(double time_per_sample, double success) {
  if (!(success > 0.0)) return INFINITY;
  if (success >= 1.0) return time_per_sample;
  const double repeats = std::log(0.01) / std::log(1.0 - success);
  return time_per_sample * std::max(1.0, repeats);
}

/// Removes the value of the first `"key":` field from a compact JSON byte
/// string (up to the next ',' or '}'), leaving every other byte in place.
/// Used to compare responses byte for byte except for one named field.
inline std::string mask_field(std::string_view json, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const std::size_t at = json.find(pattern);
  if (at == std::string_view::npos) return std::string(json);
  const std::size_t start = at + pattern.size();
  std::size_t end = start;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  std::string out(json.substr(0, start));
  out += json.substr(end);
  return out;
}

/// Peak resident set size of this process since the last reset_peak_rss(),
/// in MiB.
double peak_rss_mib();

/// Returns freed heap to the system and restarts the peak-RSS counter, so
/// set-up repetitions that a run discards do not count toward its peak.
void reset_peak_rss();

/// Number of online processors.
std::size_t online_cpus();

/// The benchmark's own trace sink: spans the benchmark records around its
/// calls into each layer. Null when the pass is untraced.
struct Tracer {
  cnash::obs::TraceRecorder* recorder = nullptr;
  std::uint64_t new_id() { return recorder ? recorder->new_trace_id() : 0; }
  cnash::obs::Span span(const char* name, std::uint64_t id) {
    return cnash::obs::Span(recorder, name, "repobench", id);
  }
};

}  // namespace repobench
