// repobench — the repository benchmark driver.
//
//   repobench --workload <solve-batch|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha <sha>]
//             [--source-digest <hex>] [--benchmark-json <file>]
//             [--layers-json <file>]
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 runs it untraced and then traced on the same seed, checks that
// both passes produced the same reports, runs the layer probes, writes a
// Perfetto-loadable trace and reports the per-layer metrics.
//
// Every metric is printed as `metric <name> <value> <unit>`; the last stdout
// line is one JSON object {"correct","attempted","failed","metrics"}. A
// failed output check makes the exit code 1. Metric names, units and order
// come from BENCHMARK.json; a metric the code produces that is not listed
// there, or a listed one it does not produce, fails the run.

#include <malloc.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "simd/simd.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

#ifndef REPOBENCH_BUILD_TYPE
#define REPOBENCH_BUILD_TYPE "unknown"
#endif

namespace repobench {

double peak_rss_mib() {
  // VmHWM, unlike getrusage's ru_maxrss, restarts at reset_peak_rss().
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
  return std::nan("");
}

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::size_t online_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload "
               "<solve-batch|serve-mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--git-sha <sha>] "
               "[--source-digest <hex>] [--benchmark-json <file>] "
               "[--layers-json <file>]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (errno || !end || *end) usage("--seed must be a whole number");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (errno || !end || *end || !(o.seconds > 0.0) || o.seconds > 120.0)
        usage("--seconds must be in (0, 120]");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else if (arg == "--git-sha") {
      o.git_sha = value;
    } else if (arg == "--source-digest") {
      o.source_digest = value;
    } else if (arg == "--benchmark-json") {
      o.benchmark_json = value;
    } else if (arg == "--layers-json") {
      o.layers_json = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != "solve-batch" && o.workload != "serve-mix")
    usage("unknown workload");
  return o;
}

PassResult run_pass(const Options& opts, Tracer tracer, Checks& checks,
                    ProbeInputs* inputs) {
  if (opts.workload == "solve-batch")
    return run_solve_batch(opts, tracer, checks, inputs);
  return run_serve_mix(opts, tracer, checks, inputs);
}

/// Round-trip rendering of a double (JSON null when not finite).
std::string number(double v) { return cnash::util::Json::number(v).dump(); }

/// Length of each pass of a traced run. Spans are held in memory until the
/// trace is written, so both passes are short; they are equally long so the
/// tracing overhead compares like with like.
constexpr double kTracedSeconds = 4.0;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The metric schema. Names, units and print order come from BENCHMARK.json
/// alone; LAYERS.json assigns every per-layer name to one layer and lists,
/// per workload, the names that workload does not exercise (they read 0).
struct Schema {
  std::vector<std::pair<std::string, std::string>> end_to_end;  // name, unit
  std::vector<std::pair<std::string, std::string>> per_layer;
  std::vector<std::string> not_exercised;  // by opts.workload
};

bool contains(const std::vector<std::string>& v, const std::string& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Loads the schema and checks that LAYERS.json names exactly the per-layer
/// metrics of BENCHMARK.json. Throws on any disagreement.
Schema load_schema(const Options& opts) {
  using cnash::util::Json;
  const Json bench = Json::parse(read_file(opts.benchmark_json));
  const Json layers = Json::parse(read_file(opts.layers_json));
  Schema s;
  for (const auto& [key, list] :
       {std::pair{"end_to_end", &s.end_to_end},
        std::pair{"per_layer", &s.per_layer}})
    for (const auto& [_, m] : bench.at(key).members())
      list->emplace_back(m.at("name").as_string(), m.at("unit").as_string());
  std::vector<std::string> per_layer, assigned;
  for (const auto& [name, _] : s.per_layer) per_layer.push_back(name);
  for (const auto& [_, layer] : layers.at("layers").members())
    for (const auto& [__, m] : layer.at("metrics").members()) {
      const std::string& name = m.as_string();
      if (!contains(per_layer, name) || contains(assigned, name))
        throw std::runtime_error(opts.layers_json + ": layer metric " + name +
                                 " is not in BENCHMARK.json per_layer, or "
                                 "is assigned twice");
      assigned.push_back(name);
    }
  for (const std::string& name : per_layer)
    if (!contains(assigned, name))
      throw std::runtime_error("BENCHMARK.json per_layer metric " + name +
                               " belongs to no layer in " + opts.layers_json);
  if (const Json* idle = layers.at("not_exercised").find(opts.workload))
    for (const auto& [_, m] : idle->members()) {
      if (!contains(per_layer, m.as_string()))
        throw std::runtime_error(opts.layers_json + ": not_exercised names " +
                                 m.as_string() + ", which is not a metric");
      s.not_exercised.push_back(m.as_string());
    }
  return s;
}

/// Orders `produced` by `spec` and checks it against the schema: every
/// produced metric is listed with the same unit, every listed one is
/// produced, except per-layer metrics the workload does not exercise, which
/// read 0.
Metrics conform(const Metrics& produced,
                const std::vector<std::pair<std::string, std::string>>& spec,
                const std::vector<std::string>& not_exercised,
                Checks& checks) {
  Metrics ordered;
  for (const auto& [name, unit] : spec) {
    const double v = produced.get(name);
    const bool idle = contains(not_exercised, name);
    checks.expect(std::isnan(v) == idle,
                  "metric " + name + (idle ? " is produced but listed as not "
                                             "exercised by this workload"
                                           : " was not produced"));
    ordered.set(name, std::isnan(v) ? 0.0 : v, unit);
  }
  for (const Metrics::Item& m : produced.items()) {
    const auto it = std::find_if(spec.begin(), spec.end(), [&](const auto& p) {
      return p.first == m.name;
    });
    checks.expect(it != spec.end() && it->second == m.unit,
                  "metric " + m.name + " [" + m.unit +
                      "] is not in BENCHMARK.json with that unit");
  }
  return ordered;
}

/// Attribution metadata carried by every result.
cnash::util::Json metadata(const Options& opts) {
  const std::size_t cpus = online_cpus();
  const bool serve = opts.workload != "solve-batch";
  cnash::util::Json m = cnash::util::Json::object();
  m.set("workload", opts.workload);
  m.set("seed", static_cast<double>(opts.seed));
  m.set("seconds", opts.seconds);
  m.set("trace", opts.trace);
  m.set("git_sha", opts.git_sha);
  m.set("source_digest", opts.source_digest);
  m.set("simd_level", cnash::simd::level_name(cnash::simd::active_level()));
  m.set("nproc", cpus);
  m.set("solver_pool", serve ? std::size_t{2} : cpus);
  m.set("event_loops", serve ? std::size_t{2} : std::size_t{0});
  m.set("connections", serve ? std::size_t{4} : std::size_t{0});
  m.set("client_threads", std::size_t{1});
  m.set("build_type", REPOBENCH_BUILD_TYPE);
  return m;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) {
  using namespace repobench;
  const Options opts = parse_args(argc, argv);
  std::filesystem::create_directories(opts.out_dir + "/traces");
  const cnash::util::Json meta = metadata(opts);
  std::printf("meta %s\n", meta.dump().c_str());

  Checks checks;
  Metrics printed;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> notes;
  try {
    const Schema schema = load_schema(opts);
    if (!opts.trace) {
      PassResult r = run_pass(opts, Tracer{}, checks, nullptr);
      r.e2e.set("peak_rss_mb", r.peak_rss_mb, "MiB");
      printed = conform(r.e2e, schema.end_to_end, {}, checks);
      attempted = r.attempted;
      failed = r.failed;
      notes = r.notes;
      notes.push_back("model_tts99_s " + number(r.model_tts99_s) +
                      " s (model time, deterministic per seed)");
    } else {
      Options pass_opts = opts;
      pass_opts.seconds = std::min(opts.seconds, kTracedSeconds);
      PassResult plain = run_pass(pass_opts, Tracer{}, checks, nullptr);
      cnash::obs::TraceRecorder recorder;
      recorder.enable();
      Tracer tracer{&recorder};
      ProbeInputs inputs;
      PassResult traced = run_pass(pass_opts, tracer, checks, &inputs);
      checks.expect(plain.digests == traced.digests,
                    "traced pass produced different reports than the "
                    "untraced pass of the same seed");
      checks.expect(plain.model_tts99_s == traced.model_tts99_s &&
                        plain.e2e.get("success_rate") ==
                            traced.e2e.get("success_rate"),
                    "success_rate or model_tts99_s differ between the "
                    "untraced and traced pass of the same seed");
      Metrics layers = traced.layers;
      // Model-time TTS99 rests on the few failed hardware-sa samples of a
      // batch, so it moves by double-digit percent from seed to seed: it is
      // compared per seed (it is exact), not as a bounded end-to-end metric.
      layers.set("model_tts99_s", traced.model_tts99_s, "s");
      layers.merge(run_layer_probes(opts, inputs, tracer, checks));
      // Both passes ran equally long; each one's rate is its completed work
      // over its timed wall time.
      const double plain_rate = plain.timed_units / plain.timed_wall_s;
      const double traced_rate = traced.timed_units / traced.timed_wall_s;
      layers.set("obs.trace_overhead_share",
                 (plain_rate - traced_rate) / plain_rate, "ratio");
      attempted = plain.attempted + traced.attempted;
      failed = plain.failed + traced.failed;
      layers.set("error_rate",
                 attempted ? static_cast<double>(failed) /
                                 static_cast<double>(attempted)
                           : 0.0,
                 "ratio");
      printed = conform(layers, schema.per_layer, schema.not_exercised, checks);
      notes = plain.notes;
      for (const std::string& n : traced.notes)
        notes.push_back("traced pass: " + n);
      const std::string trace_path = opts.out_dir + "/traces/" +
                                     opts.workload + "-seed" +
                                     std::to_string(opts.seed) + ".json";
      if (!recorder.write_chrome_trace(trace_path))
        checks.fail("cannot write trace " + trace_path);
      else
        notes.push_back("trace: " + trace_path + " (" +
                        std::to_string(recorder.event_count()) + " spans)");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench: %s\n", e.what());
    std::filesystem::remove_all(opts.out_dir + "/tmp");
    return 1;
  }
  std::filesystem::remove_all(opts.out_dir + "/tmp");
  const double error_rate =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 0.0;

  notes.push_back(
      "time base: setup_s, req_per_s, latency_*, samples_per_s and tts99_s "
      "are host time (the simulator and gateway on this machine); "
      "model_tts99_s and the paper lines' TTS are model time");
  for (const std::string& n : notes) std::printf("note %s\n", n.c_str());
  std::printf("checks %zu run, %zu failed\n", checks.checked(),
              checks.failures());
  for (const std::string& f : checks.first_failures())
    std::printf("check FAILED: %s\n", f.c_str());
  std::printf("error_rate %s (%zu failed of %zu attempted)\n",
              number(error_rate).c_str(), failed, attempted);

  cnash::util::Json metrics = cnash::util::Json::object();
  for (const Metrics::Item& m : printed.items()) {
    std::printf("metric %s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
    cnash::util::Json entry = cnash::util::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  cnash::util::Json result = cnash::util::Json::object();
  result.set("correct", checks.ok());
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  const std::string json = result.dump();

  // The full record (metadata, notes, metrics) also goes to a results file.
  cnash::util::Json record = cnash::util::Json::object();
  record.set("meta", meta);
  cnash::util::Json note_list = cnash::util::Json::array();
  for (const std::string& n : notes) note_list.push(cnash::util::Json::string(n));
  record.set("notes", std::move(note_list));
  record.set("result", std::move(result));
  std::ofstream(opts.out_dir + "/" + opts.workload + "-seed" +
                std::to_string(opts.seed) + "-trace" +
                (opts.trace ? "1" : "0") + ".json")
      << record.dump() << "\n";

  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}
