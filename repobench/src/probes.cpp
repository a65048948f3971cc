// Layer probes: the benchmark's own timed calls into each layer's public
// functions. Solver layers (simd, core.eval, core.anneal, core.backend) are
// probed on the solve-batch requests of the run seed; game, serve and store
// layers on the bodies and responses the workload itself recorded.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "chip/tiled_backend.hpp"
#include "core/engine.hpp"
#include "core/report_json.hpp"
#include "game/verify.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/protocol.hpp"
#include "simd/simd.hpp"
#include "store/store.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace repobench {

namespace cc = cnash::core;
namespace cg = cnash::game;
namespace fs = std::filesystem;

namespace {

/// Keeps a probe's results observable so its timed loop is not elided.
volatile double g_sink = 0.0;
void keep(double v) { g_sink = v; }

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// ---- simd ------------------------------------------------------------------

void probe_simd(const std::vector<BatchJob>& jobs, Metrics& m, Tracer& tr) {
  auto span = tr.span("probe.simd", 0);
  // The vector lengths the batch's games produce (row and column counts).
  std::vector<std::size_t> lengths;
  for (const BatchJob& j : jobs)
    for (std::size_t n : {j.request.game.num_actions1(),
                          j.request.game.num_actions2()})
      if (std::find(lengths.begin(), lengths.end(), n) == lengths.end())
        lengths.push_back(n);
  constexpr std::size_t kCalls = 200000;
  cnash::util::Rng rng(7);
  double asd = 0.0, dot = 0.0, mx = 0.0, sink = 0.0;
  for (std::size_t n : lengths) {
    std::vector<double> y(n), a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform();
      b[i] = rng.uniform();
    }
    Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < kCalls; ++k)
      cnash::simd::add_scaled_diff(y.data(), a.data(), b.data(), 1e-9, n);
    asd += ns_since(t0);
    sink += y[0];
    t0 = Clock::now();
    for (std::size_t k = 0; k < kCalls; ++k) {
      a[0] += 1e-12;
      sink += cnash::simd::dot(a.data(), b.data(), n);
    }
    dot += ns_since(t0);
    t0 = Clock::now();
    for (std::size_t k = 0; k < kCalls; ++k) {
      a[k % n] += 1e-12;
      sink += cnash::simd::max_value(a.data(), n);
    }
    mx += ns_since(t0);
  }
  const double calls = static_cast<double>(kCalls * lengths.size());
  m.set("simd.add_scaled_diff_ns", asd / calls, "ns");
  m.set("simd.dot_ns", dot / calls, "ns");
  m.set("simd.max_value_ns", mx / calls, "ns");
  m.set("simd.level",
        static_cast<double>(static_cast<int>(cnash::simd::active_level())),
        "level");
  keep(sink);
}

// ---- core.eval / core.anneal -------------------------------------------------

/// Forwards to an evaluator and times every propose()/commit() call.
class TimedEvaluator final : public cc::ObjectiveEvaluator,
                             public cc::IncrementalEvaluator {
 public:
  explicit TimedEvaluator(std::unique_ptr<cc::ObjectiveEvaluator> inner)
      : inner_(std::move(inner)), inc_(inner_->incremental()) {}
  double evaluate(const cg::QuantizedProfile& p) override {
    return inner_->evaluate(p);
  }
  const cg::BimatrixGame& game() const override { return inner_->game(); }
  cc::IncrementalEvaluator* incremental() override {
    return inc_ ? this : nullptr;
  }
  void reset(const cg::QuantizedProfile& p) override { inc_->reset(p); }
  double propose(const cc::TickMove* moves, std::size_t count) override {
    const Clock::time_point t0 = Clock::now();
    const double v = inc_->propose(moves, count);
    propose_ns += ns_since(t0);
    ++proposes;
    return v;
  }
  void commit() override {
    const Clock::time_point t0 = Clock::now();
    inc_->commit();
    commit_ns += ns_since(t0);
    ++commits;
  }
  double propose_ns = 0.0, commit_ns = 0.0;
  std::size_t proposes = 0, commits = 0;

 private:
  std::unique_ptr<cc::ObjectiveEvaluator> inner_;
  cc::IncrementalEvaluator* inc_;
};

struct EvalKind {
  const char* eval_prefix;    // "core.eval.exact"
  const char* anneal_prefix;  // "core.anneal.exact"
  bool has_create;
};

struct AnnealTotals {
  std::size_t iterations = 0, accepted = 0, evaluations = 0;
};

/// Runs `runs` unwrapped SA runs (anneal throughput and counters) and as many
/// wrapped runs (propose/commit cost) per factory.
void probe_kind(const EvalKind& kind,
                const std::vector<std::pair<std::shared_ptr<cc::EvaluatorFactory>,
                                            const cc::SolveRequest*>>& work,
                std::size_t runs, std::size_t max_iterations, Metrics& m,
                AnnealTotals& totals) {
  double create_ns = 0.0, sa_s = 0.0;
  std::size_t creates = 0, iterations = 0;
  double propose_ns = 0.0, commit_ns = 0.0;
  std::size_t proposes = 0, commits = 0;
  for (const auto& [factory, request] : work) {
    cc::SaOptions sa = request->sa;
    sa.iterations = std::min(sa.iterations, max_iterations);
    const cnash::util::Rng root(request->seed);
    for (std::size_t r = 0; r < runs; ++r) {
      Clock::time_point t0 = Clock::now();
      std::unique_ptr<cc::ObjectiveEvaluator> ev = factory->create(2 * r);
      create_ns += ns_since(t0);
      ++creates;
      cnash::util::Rng rng = root.split(2 * r + 1);
      t0 = Clock::now();
      const cc::SaRunResult res =
          cc::simulated_annealing(*ev, request->intervals, sa, rng);
      sa_s += seconds_between(t0, Clock::now());
      iterations += res.iterations;
      totals.iterations += res.iterations;
      totals.accepted += res.accepted;
      totals.evaluations += res.evaluations;

      TimedEvaluator timed(factory->create(2 * r));
      cnash::util::Rng rng2 = root.split(2 * r + 1);
      cc::simulated_annealing(timed, request->intervals, sa, rng2);
      propose_ns += timed.propose_ns;
      commit_ns += timed.commit_ns;
      proposes += timed.proposes;
      commits += timed.commits;
    }
  }
  const std::string e = kind.eval_prefix;
  m.set(e + ".propose_ns", proposes ? propose_ns / proposes : 0.0, "ns");
  m.set(e + ".commit_ns", commits ? commit_ns / commits : 0.0, "ns");
  if (kind.has_create)
    m.set(e + ".create_us", create_ns / 1e3 / static_cast<double>(creates),
          "us");
  m.set(std::string(kind.anneal_prefix) + ".iter_per_s",
        static_cast<double>(iterations) / sa_s, "1/s");
}

void probe_eval_anneal(const std::vector<BatchJob>& jobs, Metrics& m,
                       Tracer& tr) {
  auto span = tr.span("probe.eval_anneal", 0);
  using Work = std::vector<
      std::pair<std::shared_ptr<cc::EvaluatorFactory>, const cc::SolveRequest*>>;
  Work exact, hardware, tiled;
  for (const BatchJob& j : jobs) {
    const cc::SolveRequest& r = j.request;
    if (j.family == "exact-sa") {
      exact.emplace_back(std::make_shared<cc::ExactEvaluatorFactory>(r.game), &r);
    } else if (j.family == "hardware-sa") {
      hardware.emplace_back(std::make_shared<cc::HardwareEvaluatorFactory>(
                                r.game, r.intervals, r.hardware,
                                cnash::util::Rng(r.seed)),
                            &r);
    } else if (j.family == "hardware-sa-tiled") {
      tiled.emplace_back(std::make_shared<cnash::chip::TiledEvaluatorFactory>(
                             r.game, r.intervals, r.hardware, r.chip,
                             cnash::util::Rng(r.seed)),
                         &r);
    }
  }
  AnnealTotals totals;
  probe_kind({"core.eval.exact", "core.anneal.exact", false}, exact, 3, 3000, m,
             totals);
  probe_kind({"core.eval.hardware", "core.anneal.hardware", true}, hardware, 2,
             3000, m, totals);
  probe_kind({"chip.eval.tiled", "core.anneal.tiled", true}, tiled, 3, 2000, m,
             totals);
  const double its = static_cast<double>(totals.iterations);
  m.set("core.anneal.accept_ratio", static_cast<double>(totals.accepted) / its,
        "ratio");
  m.set("core.anneal.evals_per_iter",
        static_cast<double>(totals.evaluations) / its, "ratio");
}

// ---- core.backend ------------------------------------------------------------

void probe_backends(const std::vector<BatchJob>& jobs, Metrics& m, Tracer& tr,
                    Checks& checks) {
  auto span = tr.span("probe.backend", 0);
  struct Family {
    double unit_s = 0.0;       // measured unit time
    std::size_t measured = 0;  // measured units
    double est_busy_s = 0.0;   // estimated worker time of the whole batch
    double prepare_s = 0.0;
    std::size_t prepares = 0;
  };
  const std::vector<std::string> keys = {
      "hardware-sa",  "hardware-sa-tiled", "exact-sa",    "exact-sa-re",
      "dwave-2000q6", "dwave-advantage41", "lemke-howson"};
  std::map<std::string, Family> fam;
  const cc::SolverRegistry& registry = cc::SolverRegistry::global();
  for (const BatchJob& j : jobs) {
    Family& f = fam[j.family];
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<cc::PreparedJob> job =
        registry.at(j.request.backend).prepare(j.request);
    f.prepare_s += seconds_between(t0, Clock::now());
    ++f.prepares;
    const std::size_t units = job->num_units();
    // SA units hold a lane batch of full-length runs; one is representative.
    const std::size_t sample =
        std::min<std::size_t>(units, j.request.backend.find("sa") !=
                                                 std::string::npos
                                             ? 1
                                             : 16);
    double s = 0.0;
    for (std::size_t u = 0; u < sample; ++u) {
      t0 = Clock::now();
      const auto out = job->run_unit(u);
      s += seconds_between(t0, Clock::now());
      checks.expect(j.request.backend == "lemke-howson" || !out.empty(),
                    j.label + ": probe unit produced no sample");
    }
    f.unit_s += s;
    f.measured += sample;
    f.est_busy_s += s / static_cast<double>(sample) * static_cast<double>(units);
  }
  double total_busy = 0.0;
  for (const auto& [k, f] : fam) total_busy += f.est_busy_s;
  for (const std::string& k : keys) {
    const Family& f = fam[k];
    m.set("core.backend." + k + ".unit_ms",
          f.measured ? f.unit_s * 1e3 / static_cast<double>(f.measured) : 0.0,
          "ms");
    m.set("core.backend." + k + ".busy_share",
          total_busy > 0 ? f.est_busy_s / total_busy : 0.0, "ratio");
  }
  for (const char* k : {"hardware-sa", "hardware-sa-tiled"}) {
    const Family& f = fam[k];
    m.set(std::string("core.backend.") + k + ".prepare_ms",
          f.prepares ? f.prepare_s * 1e3 / static_cast<double>(f.prepares)
                     : 0.0,
          "ms");
  }
}

// ---- game / serve / store ------------------------------------------------------

/// One recorded exchange, decoded off the timed path.
struct Exchange {
  std::string body;
  cc::SolveRequest request{cg::BimatrixGame(cnash::la::Matrix(1, 1),
                                            cnash::la::Matrix(1, 1))};
  cc::SolveReport report;
  std::string report_json;
};

std::vector<Exchange> decode(const ProbeInputs& in, Checks& checks) {
  std::vector<Exchange> out;
  for (std::size_t i = 0; i < in.bodies.size(); ++i) {
    try {
      Exchange x;
      x.body = in.bodies[i];
      x.request = *cnash::serve::parse_request(x.body).solve;
      const cnash::util::Json resp = cnash::util::Json::parse(in.responses[i]);
      x.report = cc::report_from_json(resp.at("report"));
      x.report_json = cc::report_to_json(x.report).dump();
      out.push_back(std::move(x));
    } catch (const std::exception& e) {
      checks.fail(std::string("recorded exchange does not decode: ") +
                  e.what());
    }
  }
  return out;
}

void probe_game(const std::vector<Exchange>& xs, Metrics& m, Tracer& tr) {
  auto span = tr.span("probe.game", 0);
  double ns = 0.0;
  std::size_t calls = 0;
  for (int rep = 0; rep < 20; ++rep)
    for (const Exchange& x : xs)
      for (const cc::SolveSample& s : x.report.samples) {
        if (!s.valid) continue;
        const Clock::time_point t0 = Clock::now();
        const cg::NashCheck c = cg::check_equilibrium(x.request.game, s.p, s.q,
                                                      x.request.nash_eps);
        ns += ns_since(t0);
        ++calls;
        keep(c.regret1);
      }
  m.set("game.check_equilibrium_us", calls ? ns / 1e3 / calls : 0.0, "us");
}

void probe_serve(const std::vector<Exchange>& xs, Metrics& m, Tracer& tr) {
  namespace sv = cnash::serve;
  double parse = 0, frame = 0, canon = 0, lookup = 0, map = 0, tojson = 0,
         render = 0;
  std::size_t n = 0;
  // A cache holding every canonical key, as a warm gateway would.
  sv::SolutionCache cache(std::size_t{1} << 30);
  for (const Exchange& x : xs)
    cache.insert(sv::canonicalize(x.request).key,
                 std::make_shared<const cc::SolveReport>(x.report));
  sv::ParseSession session;
  std::string body;
  const Clock::time_point stop = Clock::now() + std::chrono::milliseconds(400);
  while (n == 0 || Clock::now() < stop) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const Exchange& x = xs[i];
      const std::uint64_t id = tr.new_id();
      auto span = tr.span("probe.serve.request", id);
      Clock::time_point t0 = Clock::now();
      sv::WireRequest wr = sv::parse_request(x.body, &session);
      parse += ns_since(t0);
      t0 = Clock::now();
      sv::WireRequest wf = sv::parse_frame_request(sv::kFrameSolve, x.body,
                                                   &session);
      frame += ns_since(t0);
      t0 = Clock::now();
      sv::CanonicalRequest cr = sv::canonicalize(std::move(*wr.solve));
      canon += ns_since(t0);
      t0 = Clock::now();
      std::shared_ptr<const cc::SolveReport> hit = cache.lookup(cr.key);
      lookup += ns_since(t0);
      if (!hit) continue;
      t0 = Clock::now();
      cc::SolveReport mapped = sv::map_to_original(cr.mapping, *hit);
      map += ns_since(t0);
      t0 = Clock::now();
      cnash::util::Json j = cc::report_to_json(mapped);
      tojson += ns_since(t0);
      t0 = Clock::now();
      sv::render_solve_ok_body(body, wr.id, true, mapped);
      render += ns_since(t0);
      ++n;
      keep(static_cast<double>(j.size()) + (wf.solve ? 1.0 : 0.0));
    }
  }
  const double us = 1e3 * static_cast<double>(n);
  m.set("serve.parse_request_us", parse / us, "us");
  m.set("serve.parse_frame_request_us", frame / us, "us");
  m.set("serve.canonicalize_us", canon / us, "us");
  m.set("serve.cache_lookup_us", lookup / us, "us");
  m.set("serve.map_to_original_us", map / us, "us");
  m.set("core.report_to_json_us", tojson / us, "us");
  m.set("serve.render_solve_ok_us", render / us, "us");
}

void probe_store(const Options& opts, const ProbeInputs& in,
                 const std::vector<Exchange>& xs, Metrics& m, Tracer& tr,
                 Checks& checks) {
  namespace st = cnash::store;
  auto span = tr.span("probe.store", 0);
  std::vector<cnash::serve::GameKey> keys;
  for (const Exchange& x : xs)
    keys.push_back(cnash::serve::canonicalize(x.request).key);
  const fs::path dir = fs::path(opts.out_dir) / "tmp" /
                       ("store-probe-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  const bool copy = !in.store_dir.empty();
  double put_ns = 0.0, get_ns = 0.0, open_ms = 0.0;
  std::size_t puts = 0, gets = 0, hits = 0;
  auto do_puts = [&](st::SolutionStore& s) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      s.put(keys[i].digest, keys[i].blob, xs[i].report_json);
      put_ns += ns_since(t0);
      ++puts;
    }
  };
  if (copy) {
    fs::copy(in.store_dir, dir, fs::copy_options::recursive);
  } else {
    st::SolutionStore fill(dir.string());
    do_puts(fill);
  }
  {
    const Clock::time_point t0 = Clock::now();
    st::SolutionStore s(dir.string());
    open_ms = seconds_between(t0, Clock::now()) * 1e3;
    for (int rep = 0; rep < 5; ++rep)
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const Clock::time_point t1 = Clock::now();
        const auto v = s.get(keys[i].digest, keys[i].blob);
        get_ns += ns_since(t1);
        ++gets;
        if (v) ++hits;
      }
    if (copy) do_puts(s);
    const st::StoreStats stats = s.stats();
    m.set("store.compression_ratio", stats.compression_ratio(), "ratio");
    if (!copy) {
      m.set("store.hit_ratio",
            static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses),
            "ratio");
      m.set("store.appends", static_cast<double>(puts), "count");
    }
  }
  checks.expect(hits == gets, "store probe: a recorded key was not found");
  m.set("store.open_ms", open_ms, "ms");
  m.set("store.get_us", gets ? get_ns / 1e3 / gets : 0.0, "us");
  m.set("store.put_us", puts ? put_ns / 1e3 / puts : 0.0, "us");
  fs::remove_all(dir);
}

}  // namespace

Metrics run_layer_probes(const Options& opts, const ProbeInputs& inputs,
                         Tracer tracer, Checks& checks) {
  Metrics m;
  const std::vector<BatchJob> jobs = make_solve_batch(opts.seed);
  probe_simd(jobs, m, tracer);
  probe_eval_anneal(jobs, m, tracer);
  probe_backends(jobs, m, tracer, checks);
  const std::vector<Exchange> xs = decode(inputs, checks);
  if (xs.empty()) {
    checks.fail("no recorded exchanges to probe");
    return m;
  }
  probe_game(xs, m, tracer);
  probe_serve(xs, m, tracer);
  probe_store(opts, inputs, xs, m, tracer, checks);
  return m;
}

}  // namespace repobench
