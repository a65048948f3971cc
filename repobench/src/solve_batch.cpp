// solve-batch: the paper's own evaluation (Table 1 / Fig. 10) plus the game
// classes the solver roadmap targets, submitted as one batch to a
// SolverService and waited on. The solver layers do all the work here; the
// gateway and the store do none.

#include <condition_variable>
#include <memory>
#include <mutex>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/report_json.hpp"
#include "core/service.hpp"
#include "core/timing.hpp"
#include "game/games.hpp"
#include "game/random_games.hpp"
#include "game/support_enum.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace repobench {

namespace cc = cnash::core;
namespace cg = cnash::game;

namespace {

// Run counts are sized so every backend family takes a visible share of
// worker time (see the core.backend.*.busy_share metrics) while one batch
// stays near one second on a 4-core host.
constexpr std::size_t kPaperRuns[3] = {128, 128, 24};
constexpr std::size_t kDWaveReads = 200;
constexpr std::size_t kCoordinationEnsembles = 32;
constexpr std::size_t kCoordinationIterations = 1500;
constexpr std::size_t kCovariantActions = 10;
constexpr std::size_t kCovariantRuns = 96;
constexpr std::size_t kCovariantIterations = 3000;
constexpr std::size_t kTiledActions = 10;
constexpr std::size_t kTiledRuns = 32;
constexpr std::size_t kTiledIterations = 2000;
constexpr std::size_t kLemkeHowsonActions = 24;

/// Wire seeds stay below 2^52 so they survive the JSON number round trip.
std::uint64_t job_seed(std::uint64_t seed, const std::string& label) {
  return derive_seed(seed, label) >> 12;
}

/// Report digest with the measured wall clock (the one scheduling-dependent
/// field) zeroed.
std::uint64_t report_digest(cc::SolveReport report) {
  report.wall_clock_s = 0.0;
  return fnv1a(cc::report_to_json(report).dump());
}

/// Small fixed jobs, one per backend family, run at every pool boot so lazy
/// set-up (registry, dispatch resolution, first-touch allocation) is paid
/// before the timed batch.
std::vector<cc::SolveRequest> warmup_requests() {
  std::vector<cc::SolveRequest> out;
  for (const char* backend :
       {"hardware-sa", "hardware-sa-tiled", "exact-sa", "dwave-2000q6",
        "dwave-advantage41", "lemke-howson"}) {
    cc::SolveRequest r(cg::battle_of_sexes());
    r.backend = backend;
    r.runs = 8;
    r.sa.iterations = 500;
    out.push_back(std::move(r));
  }
  return out;
}

/// Completion record of one submitted job.
struct Completion {
  Clock::time_point submitted;
  Clock::time_point done;
  cc::SolveReport report;
  bool failed = false;
  std::string error;
  std::uint64_t trace_id = 0;
};

/// Submits every request and blocks until all have completed.
void submit_and_wait(cc::SolverService& service,
                     std::vector<cc::SolveRequest> requests, Tracer& tracer,
                     std::vector<Completion>& out) {
  out.assign(requests.size(), Completion{});
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = requests.size();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    cc::JobHooks hooks;
    out[i].trace_id = tracer.new_id();
    hooks.trace_id = out[i].trace_id;
    hooks.on_complete = [&, i](cc::SolveReport&& report,
                               std::exception_ptr error) {
      Completion& c = out[i];
      c.done = Clock::now();
      if (error) {
        c.failed = true;
        try {
          std::rethrow_exception(error);
        } catch (const std::exception& e) {
          c.error = e.what();
        } catch (...) {
          c.error = "unknown error";
        }
      } else {
        c.report = std::move(report);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_all();
    };
    out[i].submitted = Clock::now();
    service.submit_async(std::move(requests[i]), std::move(hooks));
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
}

/// Expected sample count of a completed report, by backend family.
bool sample_count_ok(const BatchJob& job, const cc::SolveReport& report) {
  if (job.request.backend == "lemke-howson") return !report.samples.empty();
  return report.samples.size() == job.request.runs;
}

/// Table 1 check: every is_nash verdict must agree with the ground truth of
/// support enumeration, through core::classify.
void check_paper_verdicts(const std::vector<BatchJob>& jobs,
                          const std::vector<Completion>& done,
                          Checks& checks) {
  const auto instances = cg::paper_benchmarks();
  std::vector<std::vector<cg::Equilibrium>> truth(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i)
    truth[i] = cg::all_equilibria(instances[i].game);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].paper_index < 0 || done[j].failed) continue;
    const auto idx = static_cast<std::size_t>(jobs[j].paper_index);
    const cg::BimatrixGame& g = instances[idx].game;
    std::size_t disagreements = 0;
    for (const cc::SolveSample& s : done[j].report.samples) {
      const cc::SolverReport verdict = cc::classify(
          g, truth[idx], {{s.p, s.q}}, jobs[j].request.nash_eps);
      const bool nash = verdict.successes() == 1;
      std::size_t hits = 0;
      for (std::size_t h : verdict.hits) hits += h;
      if (!s.valid) {
        if (s.is_nash) ++disagreements;
        continue;
      }
      if (nash != s.is_nash || (nash && hits != 1)) ++disagreements;
    }
    checks.expect(disagreements == 0,
                  jobs[j].label + ": " + std::to_string(disagreements) +
                      " is_nash verdicts disagree with support enumeration");
  }
}

}  // namespace

std::string wire_body(const cc::SolveRequest& request, std::uint64_t id) {
  using cnash::util::Json;
  auto matrix = [](const cnash::la::Matrix& m) {
    Json rows = Json::array();
    for (std::size_t r = 0; r < m.rows(); ++r) {
      Json row = Json::array();
      for (std::size_t c = 0; c < m.cols(); ++c) row.push(Json::number(m(r, c)));
      rows.push(std::move(row));
    }
    return rows;
  };
  Json game = Json::object();
  game.set("name", request.game.name());
  game.set("m", matrix(request.game.payoff1()));
  game.set("n", matrix(request.game.payoff2()));
  Json body = Json::object();
  body.set("method", "solve");
  body.set("game", std::move(game));
  body.set("backend", request.backend);
  body.set("runs", static_cast<double>(request.runs));
  body.set("iterations", static_cast<double>(request.sa.iterations));
  body.set("intervals", static_cast<double>(request.intervals));
  body.set("seed", static_cast<double>(request.seed));
  if (request.backend == "hardware-sa-tiled") {
    body.set("tile_rows", static_cast<double>(request.chip.tile_rows));
    body.set("tile_cols", static_cast<double>(request.chip.tile_cols));
  }
  if (request.sa.mode == cc::SaMode::kReplicaExchange) {
    body.set("sa_mode", "replica-exchange");
    body.set("replicas", static_cast<double>(request.sa.replicas));
  }
  body.set("id", static_cast<double>(id));
  return body.dump();
}

std::vector<BatchJob> make_solve_batch(std::uint64_t seed) {
  std::vector<BatchJob> jobs;
  auto add = [&](std::string label, std::string family, int paper_index,
                 cc::SolveRequest request) {
    request.seed = job_seed(seed, label);
    jobs.push_back({std::move(label), std::move(family), paper_index,
                    std::move(request)});
  };

  // (1) Table 1 / Fig. 10: each paper instance at its paper I and iteration
  // count on C-Nash and both D-Wave proxies. The instance with the longest
  // units is submitted first, so a round is bound by the batch's total work
  // rather than by a long unit that starts late.
  const auto instances = cg::paper_benchmarks();
  for (std::size_t i = instances.size(); i-- > 0;) {
    for (const char* backend :
         {"hardware-sa", "dwave-2000q6", "dwave-advantage41"}) {
      cc::SolveRequest r(instances[i].game);
      r.backend = backend;
      r.intervals = instances[i].intervals;
      r.sa.iterations = instances[i].sa_iterations;
      r.runs = r.backend == "hardware-sa" ? kPaperRuns[i] : kDWaveReads;
      add("paper" + std::to_string(i) + "/" + backend, backend,
          static_cast<int>(i), std::move(r));
    }
  }

  // (2) Coordination games in replica-exchange mode and seeded covariant
  // games (zero-sum-leaning, uncorrelated, common-interest).
  for (std::size_t n : {std::size_t{8}, std::size_t{12}}) {
    cc::SolveRequest r(cg::coordination(n));
    r.backend = "exact-sa";
    r.sa.mode = cc::SaMode::kReplicaExchange;
    r.sa.iterations = kCoordinationIterations;
    r.runs = kCoordinationEnsembles;
    add("coordination" + std::to_string(n) + "/exact-sa-re", "exact-sa-re", -1,
        std::move(r));
  }
  cnash::util::Rng rng(derive_seed(seed, "covariant"));
  for (double rho : {-0.5, 0.0, 0.9}) {
    const std::string tag = "covariant" + std::to_string(rho).substr(0, 4);
    cg::BimatrixGame g = cg::random_covariant_game(
        kCovariantActions, kCovariantActions, rho, rng);
    cc::SolveRequest r(std::move(g));
    r.backend = "exact-sa";
    r.sa.iterations = kCovariantIterations;
    r.runs = kCovariantRuns;
    add(tag + "/exact-sa", "exact-sa", -1, std::move(r));
  }

  // (3) One multi-tile hardware job (integer payoffs on a 5 x 5 tile grid)
  // and one lemke-howson job.
  {
    cnash::util::Rng trng(derive_seed(seed, "tiled"));
    cc::SolveRequest r(
        cg::random_integer_game(kTiledActions, kTiledActions, trng));
    r.backend = "hardware-sa-tiled";
    r.chip.tile_rows = 2 * r.intervals;
    r.chip.tile_cols = 2 * r.intervals * 7;
    r.sa.iterations = kTiledIterations;
    r.runs = kTiledRuns;
    add("tiled/hardware-sa-tiled", "hardware-sa-tiled", -1, std::move(r));
  }
  {
    cnash::util::Rng lrng(derive_seed(seed, "lemke-howson"));
    cc::SolveRequest r(cg::random_covariant_game(
        kLemkeHowsonActions, kLemkeHowsonActions, 0.0, lrng));
    r.backend = "lemke-howson";
    add("covariant/lemke-howson", "lemke-howson", -1, std::move(r));
  }
  return jobs;
}

PassResult run_solve_batch(const Options& opts, Tracer tracer, Checks& checks,
                           ProbeInputs* probe_inputs) {
  const std::vector<BatchJob> jobs = make_solve_batch(opts.seed);
  const std::size_t pool = online_cpus();

  // Telemetry owned by the benchmark, handed in through ServiceOptions.
  const bool traced = tracer.recorder != nullptr;
  auto prepare_h = std::make_unique<cnash::obs::Histogram>();
  auto unit_h = std::make_unique<cnash::obs::Histogram>();
  auto wait_h = std::make_unique<cnash::obs::Histogram>();

  PassResult out;
  std::vector<double> setup_s, wall_s;
  std::vector<double> latencies;  // every timed job, all rounds pooled
  std::vector<Completion> first;
  double pool_wall = 0.0;  // summed pool lifetimes, warm-up round included
  Clock::time_point deadline;
  // Round 0 warms caches and the allocator and is not timed; the timed
  // rounds follow until the run's seconds are used (at least three).
  std::size_t rounds = 0;
  std::vector<double> peak_rss;
  while (rounds < 4 || Clock::now() < deadline) {
    // Each round is a fresh pool; its peak memory is measured on its own.
    if (rounds > 0) reset_peak_rss();
    const Clock::time_point t0 = Clock::now();
    cc::ServiceOptions so;
    so.threads = pool;
    if (traced) {
      so.telemetry.prepare_seconds = prepare_h.get();
      so.telemetry.unit_seconds = unit_h.get();
      so.telemetry.queue_wait_seconds = wait_h.get();
      so.telemetry.trace = tracer.recorder;
    }
    cc::SolverService service(so);
    Tracer untraced;
    std::vector<Completion> warm;
    submit_and_wait(service, warmup_requests(), untraced, warm);
    for (const Completion& c : warm)
      checks.expect(!c.failed, "warm-up job failed: " + c.error);
    std::vector<cc::SolveRequest> requests;
    requests.reserve(jobs.size());
    for (const BatchJob& j : jobs) requests.push_back(j.request);
    const Clock::time_point t1 = Clock::now();

    std::vector<Completion> done;
    submit_and_wait(service, std::move(requests), tracer, done);
    const Clock::time_point t2 = Clock::now();
    service.drain();

    const bool timed = rounds > 0;
    if (timed) {
      setup_s.push_back(seconds_between(t0, t1));
      wall_s.push_back(seconds_between(t1, t2));
      peak_rss.push_back(peak_rss_mib());
    }
    pool_wall += seconds_between(t0, t2);
    out.attempted += jobs.size();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Completion& c = done[j];
      if (tracer.recorder)
        tracer.recorder->record("solve-batch.job", "repobench", c.submitted,
                                c.done, c.trace_id);
      if (c.failed) {
        ++out.failed;
        continue;
      }
      if (timed) latencies.push_back(seconds_between(c.submitted, c.done));
      checks.expect(!c.report.degraded &&
                        c.report.units_completed == c.report.units_total &&
                        sample_count_ok(jobs[j], c.report),
                    jobs[j].label + ": incomplete report");
      if (rounds > 0 && !first[j].failed)
        checks.expect(report_digest(c.report) ==
                          report_digest(first[j].report),
                      jobs[j].label + ": report differs between rounds");
    }
    if (rounds == 0) {
      first = std::move(done);
      deadline = Clock::now() +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(opts.seconds));
    }
    ++rounds;
  }

  // Output checks, off the timed path.
  check_paper_verdicts(jobs, first, checks);

  // Aggregates over the batch (identical in every round of one seed).
  std::size_t samples = 0, nash = 0, hw_samples = 0, hw_nash = 0;
  double hw_model_s = 0.0;
  std::size_t swap_prop = 0, swap_acc = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (first[j].failed) continue;
    const cc::SolveReport& r = first[j].report;
    out.digests.emplace_back(jobs[j].label, report_digest(r));
    samples += r.samples.size();
    nash += r.nash_count;
    if (jobs[j].request.backend == "hardware-sa") {
      hw_samples += r.samples.size();
      hw_nash += r.nash_count;
      hw_model_s += r.modeled_time_s;
    }
    swap_prop += r.re_swap_proposals;
    swap_acc += r.re_swap_accepts;
  }
  const double success =
      samples ? static_cast<double>(nash) / static_cast<double>(samples) : 0.0;
  const double hw_success =
      hw_samples ? static_cast<double>(hw_nash) / static_cast<double>(hw_samples)
                 : 0.0;
  std::vector<double> sps, tts, rps;
  for (double w : wall_s) {
    sps.push_back(static_cast<double>(samples) / w);
    tts.push_back(tts99(w / static_cast<double>(samples), success));
    rps.push_back(static_cast<double>(jobs.size()) / w);
  }
  // Throughputs are the median round; latencies are quantiles of every timed
  // job of the run.
  std::sort(latencies.begin(), latencies.end());
  out.e2e.set("setup_s", median(setup_s), "s");
  out.peak_rss_mb = median(peak_rss);
  out.e2e.set("req_per_s", median(rps), "1/s");
  out.e2e.set("latency_p50_s", sorted_quantile(latencies, 0.50), "s");
  out.e2e.set("latency_p99_s", sorted_quantile(latencies, 0.99), "s");
  out.e2e.set("samples_per_s", median(sps), "1/s");
  out.e2e.set("tts99_s", median(tts), "s");
  out.e2e.set("success_rate", success, "ratio");
  out.model_tts99_s =
      tts99(hw_samples ? hw_model_s / static_cast<double>(hw_samples) : 0.0,
            hw_success);
  out.timed_units = static_cast<double>(samples * wall_s.size());
  for (double w : wall_s) out.timed_wall_s += w;

  {
    std::string w = "solve-batch: round walls (s):";
    for (double x : wall_s) w += " " + std::to_string(x);
    out.notes.push_back(w);
  }
  out.notes.push_back("solve-batch: pool " + std::to_string(pool) +
                      " workers, 1 submitting thread, " +
                      std::to_string(jobs.size()) + " jobs and " +
                      std::to_string(samples) + " samples per round, " +
                      std::to_string(rounds - 1) + " timed rounds after 1 warm-up round, " +
                      std::to_string(latencies.size()) + " job latencies");

  // Paper reference (Table 1 / Fig. 10) next to the measured values.
  const auto instances = cg::paper_benchmarks();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const cnash::bench::PaperReference ref = cnash::bench::paper_reference(i);
    // Fig. 10 convention: C-Nash TTS = model run time / success rate, D-Wave
    // TTS = the job model's time / success rate.
    double rate[3] = {0, 0, 0};
    double cnash_run_s = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].paper_index != static_cast<int>(i) || first[j].failed)
        continue;
      const cc::SolveReport& r = first[j].report;
      const std::string& b = jobs[j].request.backend;
      const int k = b == "hardware-sa" ? 0 : b == "dwave-2000q6" ? 1 : 2;
      rate[k] = r.nash_rate();
      if (k == 0) cnash_run_s = r.modeled_time_s / static_cast<double>(r.runs());
    }
    const double cnash_tts = cnash_run_s / rate[0];
    const double q6_tts =
        cc::DWaveTimingModel(cc::dwave_2000q6_timing()).time_to_solution_s(
            rate[1]);
    const double adv_tts =
        cc::DWaveTimingModel(cc::dwave_advantage41_timing())
            .time_to_solution_s(rate[2]);
    char line[640];
    std::snprintf(
        line, sizeof line,
        "paper %-28s hardware-sa success %.4f (paper %.2f%%), model TTS "
        "%.3e s, model TTS99 %.3e s | D-Wave proxy success 2000Q6 %.4f "
        "(paper %.2f%%), Adv4.1 %.4f (paper %.2f%%) | model TTS ratio "
        "D-Wave/C-Nash: 2000Q6 %.1f (paper %.1f), Adv4.1 %.1f (paper %.1f)",
        instances[i].game.name().c_str(), rate[0], ref.success_cnash,
        cnash_tts, tts99(cnash_run_s, rate[0]), rate[1], ref.success_2000q,
        rate[2], ref.success_advantage, q6_tts / cnash_tts, ref.speedup_2000q,
        adv_tts / cnash_tts, ref.speedup_advantage);
    out.notes.push_back(line);
  }
  out.notes.push_back(
      "paper: success rates are outcomes of the simulated hardware; every TTS "
      "on the paper lines is model time from core::timing, and that model "
      "has no validation other than these paper values (paper -1 = not "
      "reported). tts99_s and samples_per_s are host time: they measure the "
      "simulator, not the modelled chip.");

  // Layer metrics observable from the pass itself.
  if (traced) {
    const auto ms = [](double s) { return s * 1e3; };
    out.layers.set("core.service.queue_wait_ms.p50",
                   ms(wait_h->percentile(0.50)), "ms");
    out.layers.set("core.service.queue_wait_ms.p99",
                   ms(wait_h->percentile(0.99)), "ms");
    out.layers.set("core.service.unit_ms.p50", ms(unit_h->percentile(0.50)),
                   "ms");
    out.layers.set("core.service.unit_ms.p99", ms(unit_h->percentile(0.99)),
                   "ms");
    out.layers.set("core.service.prepare_ms.p50",
                   ms(prepare_h->percentile(0.50)), "ms");
    out.layers.set("core.service.busy_share",
                   (prepare_h->sum() + unit_h->sum()) /
                       (pool_wall * static_cast<double>(pool)),
                   "ratio");
    out.layers.set("core.service.units",
                   static_cast<double>(unit_h->count()), "count");
  }
  out.layers.set("core.anneal.re_swap_accept_ratio",
                 swap_prop ? static_cast<double>(swap_acc) /
                                 static_cast<double>(swap_prop)
                           : 0.0,
                 "ratio");

  if (probe_inputs) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (first[j].failed) continue;
      probe_inputs->bodies.push_back(wire_body(jobs[j].request, j));
      std::string response;
      cnash::serve::render_solve_ok_body(
          response, cnash::util::Json::number(static_cast<double>(j)), false,
          first[j].report);
      probe_inputs->responses.push_back(std::move(response));
    }
  }
  return out;
}

}  // namespace repobench
