#include "core/report_json.hpp"

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace cnash::core {

namespace {

/// Appends `,"key":v`.
void append_field(std::string& out, std::string_view key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  util::append_json_number(out, v);
}

void append_field(std::string& out, std::string_view key, std::size_t v) {
  append_field(out, key, static_cast<double>(v));
}

void append_field(std::string& out, std::string_view key, bool v) {
  out += ",\"";
  out += key;
  out += v ? "\":true" : "\":false";
}

template <class T>
void append_array(std::string& out, const std::vector<T>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    util::append_json_number(out, static_cast<double>(values[i]));
  }
  out += ']';
}

void append_sample(std::string& out, const SolveSample& s) {
  out += "{\"p\":";
  append_array(out, s.p);
  out += ",\"q\":";
  append_array(out, s.q);
  append_field(out, "objective", s.objective);
  append_field(out, "valid", s.valid);
  append_field(out, "is_nash", s.is_nash);
  append_field(out, "regret", s.regret);
  // Emitted only when set: fallback samples exist only on the "resilient"
  // backend's contingency path, and the common case stays compact.
  if (s.fallback) append_field(out, "fallback", true);
  // Replica-exchange provenance, same convention — independent-mode samples
  // stay byte-identical to pre-telemetry builds.
  if (s.swap_proposals) append_field(out, "swap_proposals", s.swap_proposals);
  if (s.swap_accepts) append_field(out, "swap_accepts", s.swap_accepts);
  if (s.profile) {
    out += ",\"profile\":{\"intervals\":";
    util::append_json_number(out,
                             static_cast<double>(s.profile->p.intervals()));
    out += ",\"p\":";
    append_array(out, s.profile->p.counts());
    out += ",\"q\":";
    append_array(out, s.profile->q.counts());
    out += '}';
  }
  out += '}';
}

/// A non-negative integer no larger than `max`, checked before any cast (a
/// negative, NaN or huge double cast to an unsigned type is undefined).
double checked_integer(const util::Json& json, double max, const char* what) {
  const double x = json.as_number();
  if (!(x >= 0.0 && x <= max) || x != std::floor(x))
    throw util::JsonError(0, std::string(what) +
                                 " must be a non-negative integer");
  return x;
}

// 2^53: every integer up to it is exact in a double, and it fits size_t.
constexpr double kMaxCount = 9007199254740992.0;
constexpr double kMaxU32 = 4294967295.0;

std::size_t count_from_json(const util::Json& json, const char* what) {
  return static_cast<std::size_t>(checked_integer(json, kMaxCount, what));
}

la::Vector vector_from_json(const util::Json& json) {
  if (!json.is_array()) throw util::JsonError(0, "expected a number array");
  la::Vector v;
  v.reserve(json.size());
  for (const auto& kv : json.members()) v.push_back(kv.second.as_number());
  return v;
}

game::QuantizedStrategy strategy_from_json(const util::Json& json,
                                           std::uint32_t intervals) {
  if (!json.is_array()) throw util::JsonError(0, "expected a tick-count array");
  std::vector<std::uint32_t> counts;
  counts.reserve(json.size());
  for (const auto& kv : json.members())
    counts.push_back(static_cast<std::uint32_t>(
        checked_integer(kv.second, kMaxU32, "profile tick counts")));
  // The QuantizedStrategy constructor enforces sum(counts) == intervals; remap
  // its failure to the serializer's error type.
  try {
    return game::QuantizedStrategy(std::move(counts), intervals);
  } catch (const std::exception& e) {
    throw util::JsonError(0, std::string("invalid quantized profile: ") +
                                 e.what());
  }
}

SolveSample sample_from_json(const util::Json& json) {
  SolveSample s;
  s.p = vector_from_json(json.at("p"));
  s.q = vector_from_json(json.at("q"));
  s.objective = json.at("objective").as_number();
  s.valid = json.at("valid").as_bool();
  s.is_nash = json.at("is_nash").as_bool();
  s.regret = json.at("regret").as_number();
  if (const util::Json* fb = json.find("fallback")) s.fallback = fb->as_bool();
  if (const util::Json* sp = json.find("swap_proposals"))
    s.swap_proposals = count_from_json(*sp, "swap_proposals");
  if (const util::Json* sa = json.find("swap_accepts"))
    s.swap_accepts = count_from_json(*sa, "swap_accepts");
  if (const util::Json* profile = json.find("profile")) {
    const auto intervals = static_cast<std::uint32_t>(checked_integer(
        profile->at("intervals"), kMaxU32, "profile intervals"));
    if (intervals == 0)
      throw util::JsonError(0, "profile intervals must be a positive integer");
    s.profile = game::QuantizedProfile{
        strategy_from_json(profile->at("p"), intervals),
        strategy_from_json(profile->at("q"), intervals)};
  }
  return s;
}

}  // namespace

void append_report_json(std::string& out, const SolveReport& report) {
  out += "{\"backend\":";
  util::append_json_string(out, report.backend);
  out += ",\"game\":";
  util::append_json_string(out, report.game_name);
  append_field(out, "nash_count", report.nash_count);
  append_field(out, "valid_count", report.valid_count);
  append_field(out, "best_objective", report.best_objective);
  append_field(out, "modeled_time_s", report.modeled_time_s);
  append_field(out, "wall_clock_s", report.wall_clock_s);
  append_field(out, "degraded", report.degraded);
  append_field(out, "units_total", report.units_total);
  append_field(out, "units_completed", report.units_completed);
  append_field(out, "fallback_count", report.fallback_count);
  // Conditional for byte-compatibility with pre-telemetry serializations
  // (goldens, persisted store segments, the cache replay contract).
  if (report.re_swap_proposals)
    append_field(out, "re_swap_proposals", report.re_swap_proposals);
  if (report.re_swap_accepts)
    append_field(out, "re_swap_accepts", report.re_swap_accepts);
  out += ",\"samples\":[";
  for (std::size_t i = 0; i < report.samples.size(); ++i) {
    if (i) out += ',';
    append_sample(out, report.samples[i]);
  }
  out += "]}";
}

util::Json report_to_json(const SolveReport& report) {
  std::string text;
  append_report_json(text, report);
  return util::Json::parse(text);
}

SolveReport report_from_json(const util::Json& json) {
  SolveReport report;
  report.backend = json.at("backend").as_string();
  report.game_name = json.at("game").as_string();
  const util::Json& samples = json.at("samples");
  if (!samples.is_array()) throw util::JsonError(0, "samples must be an array");
  report.samples.reserve(samples.size());
  for (const auto& kv : samples.members())
    report.samples.push_back(sample_from_json(kv.second));
  // Aggregates are carried explicitly (not recomputed) so a parsed report is
  // bit-identical to the serialized one even if summarize() evolves.
  report.nash_count = count_from_json(json.at("nash_count"), "nash_count");
  report.valid_count = count_from_json(json.at("valid_count"), "valid_count");
  report.best_objective = json.at("best_objective").as_number();
  report.modeled_time_s = json.at("modeled_time_s").as_number();
  report.wall_clock_s = json.at("wall_clock_s").as_number();
  // Robustness accounting (PR 7+): absent in reports serialized by older
  // builds, so parse with defaults.
  if (const util::Json* d = json.find("degraded")) report.degraded = d->as_bool();
  if (const util::Json* u = json.find("units_total"))
    report.units_total = count_from_json(*u, "units_total");
  if (const util::Json* u = json.find("units_completed"))
    report.units_completed = count_from_json(*u, "units_completed");
  if (const util::Json* f = json.find("fallback_count"))
    report.fallback_count = count_from_json(*f, "fallback_count");
  if (const util::Json* p = json.find("re_swap_proposals"))
    report.re_swap_proposals = count_from_json(*p, "re_swap_proposals");
  if (const util::Json* a = json.find("re_swap_accepts"))
    report.re_swap_accepts = count_from_json(*a, "re_swap_accepts");
  return report;
}

}  // namespace cnash::core
