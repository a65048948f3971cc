#include "core/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "chip/tiled_backend.hpp"
#include "core/resilient.hpp"
#include "core/timing.hpp"
#include "game/lemke_howson.hpp"
#include "game/support_enum.hpp"
#include "game/verify.hpp"
#include "qubo/dwave_proxy.hpp"

namespace cnash::core {

double SolveReport::nash_rate() const {
  if (samples.empty()) return 0.0;
  return static_cast<double>(nash_count) / static_cast<double>(samples.size());
}

void validate_request(const SolveRequest& request) {
  validate_request(request, SolverRegistry::global().at(request.backend));
}

void validate_request(const SolveRequest& request,
                      const SolverBackend& backend) {
  if (request.runs == 0)
    throw std::invalid_argument(
        "invalid solve request: runs == 0 (need at least one sample unit)");
  if (request.game.num_actions1() == 0 || request.game.num_actions2() == 0)
    throw std::invalid_argument("invalid solve request: empty game");
  if (backend.needs_iterations() && request.sa.iterations == 0)
    throw std::invalid_argument(
        "invalid solve request: iterations == 0 (SA backend \"" +
        backend.name() + "\" needs at least one iteration)");
  if (!std::isfinite(request.deadline_s) || request.deadline_s < 0.0)
    throw std::invalid_argument(
        "invalid solve request: deadline_s must be finite and >= 0 "
        "(0 disables the deadline)");
  const auto check_rate = [](double v, const char* name) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0)
      throw std::invalid_argument(std::string("invalid solve request: fault.") +
                                  name + " must be in [0, 1]");
  };
  check_rate(request.fault.unit_failure_rate, "unit_failure_rate");
  check_rate(request.fault.tile_failure_rate, "tile_failure_rate");
  check_rate(request.fault.unit_delay_rate, "unit_delay_rate");
  if (!std::isfinite(request.fault.unit_delay_s) ||
      request.fault.unit_delay_s < 0.0)
    throw std::invalid_argument(
        "invalid solve request: fault.unit_delay_s must be finite and >= 0");
  if (request.fault.solver_faults() && request.backend != "resilient")
    throw std::invalid_argument(
        "invalid solve request: fault injection is only accepted by the "
        "\"resilient\" backend (backend \"" +
        request.backend + "\" has no fallback path)");
  if (request.backend == "resilient" &&
      request.resilient_primary != "hardware-sa" &&
      request.resilient_primary != "hardware-sa-tiled")
    throw std::invalid_argument(
        "invalid solve request: resilient primary must be \"hardware-sa\" or "
        "\"hardware-sa-tiled\", not \"" +
        request.resilient_primary + "\"");
  if (request.sa.mode == SaMode::kReplicaExchange) {
    if (request.sa.replicas < 2)
      throw std::invalid_argument(
          "invalid solve request: replica-exchange needs sa.replicas >= 2");
    if (request.sa.exchange_interval == 0)
      throw std::invalid_argument(
          "invalid solve request: sa.exchange_interval must be >= 1");
    if (!(request.sa.ladder_ratio > 1.0))
      throw std::invalid_argument(
          "invalid solve request: sa.ladder_ratio must be > 1");
  }
  for (const la::Matrix* m : {&request.game.payoff1(), &request.game.payoff2()})
    for (std::size_t r = 0; r < m->rows(); ++r)
      for (std::size_t c = 0; c < m->cols(); ++c)
        if (!std::isfinite((*m)(r, c)))
          throw std::invalid_argument(
              "invalid solve request: non-finite payoff in game \"" +
              request.game.name() + "\"");
}

void verify_samples(const game::BimatrixGame& game, double nash_eps,
                    std::vector<SolveSample>& samples) {
  for (SolveSample& s : samples) {
    if (!s.valid) {
      s.is_nash = false;
      s.regret = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    const game::NashCheck check =
        game::check_equilibrium(game, s.p, s.q, nash_eps);
    s.is_nash = check.is_equilibrium;
    s.regret = std::max(check.regret1, check.regret2);
  }
}

void summarize(SolveReport& report) {
  report.nash_count = 0;
  report.valid_count = 0;
  report.fallback_count = 0;
  report.re_swap_proposals = 0;
  report.re_swap_accepts = 0;
  double best = std::numeric_limits<double>::quiet_NaN();
  for (const SolveSample& s : report.samples) {
    if (s.is_nash) ++report.nash_count;
    if (s.fallback) ++report.fallback_count;
    report.re_swap_proposals += s.swap_proposals;
    report.re_swap_accepts += s.swap_accepts;
    if (!s.valid) continue;
    ++report.valid_count;
    if (std::isnan(best) || s.objective < best) best = s.objective;
  }
  report.best_objective = best;
}

SolveReport assemble_report(const PreparedJob& job,
                            std::vector<std::vector<SolveSample>> slots) {
  SolveReport report;
  report.backend = job.backend_name;
  report.game_name = job.game_name;
  report.modeled_time_s = job.modeled_time_s;
  std::size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  report.samples.reserve(total);
  for (auto& slot : slots)
    for (SolveSample& s : slot) report.samples.push_back(std::move(s));
  job.finalize(report);
  summarize(report);
  return report;
}

SolveReport SolverBackend::solve(const SolveRequest& request) const {
  const auto t0 = std::chrono::steady_clock::now();
  validate_request(request, *this);
  const std::unique_ptr<PreparedJob> job = prepare(request);
  std::vector<std::vector<SolveSample>> slots(job->num_units());
  for (std::size_t u = 0; u < slots.size(); ++u) slots[u] = job->run_unit(u);
  SolveReport report = assemble_report(*job, std::move(slots));
  report.units_total = job->num_units();
  report.units_completed = job->num_units();
  report.wall_clock_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  return report;
}

// ---- SA backends (hardware-sa / exact-sa) -----------------------------------

SaPreparedJob::SaPreparedJob(std::shared_ptr<const EvaluatorFactory> factory,
                             std::uint32_t intervals, SaOptions sa,
                             bool report_best, std::uint64_t seed,
                             std::size_t num_runs, double nash_eps)
    : factory_(std::move(factory)),
      intervals_(intervals),
      sa_(sa),
      report_best_(report_best),
      root_(seed),
      num_runs_(num_runs),
      nash_eps_(nash_eps) {
  if (!factory_) throw std::invalid_argument("SaPreparedJob: null factory");
  if (sa_.mode == SaMode::kReplicaExchange) {
    if (sa_.replicas < 2)
      throw std::invalid_argument("SaPreparedJob: sa.replicas must be >= 2");
    if (sa_.exchange_interval == 0)
      throw std::invalid_argument(
          "SaPreparedJob: sa.exchange_interval must be >= 1");
    if (!(sa_.ladder_ratio > 1.0))
      throw std::invalid_argument(
          "SaPreparedJob: sa.ladder_ratio must be > 1");
  }
  game_name = factory_->game().name();
}

namespace {

SolveSample sa_sample(const SaRunResult& res, bool report_best) {
  const game::QuantizedProfile& chosen =
      report_best ? res.best_profile : res.final_profile;
  SolveSample s;
  s.p = chosen.p.to_distribution();
  s.q = chosen.q.to_distribution();
  s.objective = report_best ? res.best_objective : res.final_objective;
  s.profile = chosen;
  // Zero for independent-mode runs; replica exchange stamps the ensemble
  // totals on every replica, so the winner carries them.
  s.swap_proposals = res.swap_proposals;
  s.swap_accepts = res.swap_accepts;
  return s;
}

}  // namespace

std::size_t SaPreparedJob::num_units() const { return num_runs_; }

std::vector<SolveSample> SaPreparedJob::run_unit(std::size_t unit) const {
  return sa_.mode == SaMode::kReplicaExchange ? run_ensemble_unit(unit)
                                              : run_single_unit(unit);
}

std::vector<SolveSample> SaPreparedJob::run_single_unit(
    std::size_t unit) const {
  // Even keys address evaluator instances, odd keys SA streams, so the two
  // families can never alias across runs.
  const std::uint64_t r = unit;
  const std::unique_ptr<ObjectiveEvaluator> objective = factory_->create(2 * r);
  util::Rng rng = root_.split(2 * r + 1);
  std::vector<SolveSample> out{sa_sample(
      simulated_annealing(*objective, intervals_, sa_, rng), report_best_)};
  verify_samples(factory_->game(), nash_eps_, out);
  return out;
}

std::vector<SolveSample> SaPreparedJob::run_ensemble_unit(
    std::size_t unit) const {
  const std::uint64_t e = unit;
  const std::size_t r = sa_.replicas;
  const std::uint64_t stride = static_cast<std::uint64_t>(r) + 1;
  std::vector<std::unique_ptr<ObjectiveEvaluator>> owned;
  std::vector<ObjectiveEvaluator*> replicas;
  std::vector<util::Rng> rngs;
  owned.reserve(r);
  replicas.reserve(r);
  rngs.reserve(r);
  for (std::size_t l = 0; l < r; ++l) {
    owned.push_back(factory_->create(2 * (e * stride + l)));
    replicas.push_back(owned.back().get());
    rngs.push_back(root_.split(2 * (e * stride + l) + 1));
  }
  util::Rng swap_rng = root_.split(2 * (e * stride + r) + 1);
  const std::vector<SaRunResult> results = simulated_annealing_replica_exchange(
      replicas, intervals_, sa_, rngs.data(), swap_rng);
  // The ensemble reports its winning replica (ties to the lowest replica
  // index for determinism).
  std::size_t win = 0;
  auto score = [&](const SaRunResult& res) {
    return report_best_ ? res.best_objective : res.final_objective;
  };
  for (std::size_t l = 1; l < results.size(); ++l)
    if (score(results[l]) < score(results[win])) win = l;
  std::vector<SolveSample> out{sa_sample(results[win], report_best_)};
  verify_samples(factory_->game(), nash_eps_, out);
  return out;
}

namespace {

class SaBackend final : public SolverBackend {
 public:
  explicit SaBackend(bool hardware)
      : hardware_(hardware), name_(hardware ? "hardware-sa" : "exact-sa") {}

  const std::string& name() const override { return name_; }

  std::string describe() const override {
    return hardware_
               ? "two-phase SA on the full FeFET crossbar/WTA/ADC model "
                 "(runs, seed, intervals, sa, hardware, report_best)"
               : "two-phase SA on the exact MAX-QUBO objective, ablation "
                 "(runs, seed, intervals, sa, report_best)";
  }

  bool needs_iterations() const override { return true; }

  std::unique_ptr<PreparedJob> prepare(
      const SolveRequest& request) const override {
    std::shared_ptr<const EvaluatorFactory> factory;
    double modeled = 0.0;
    if (hardware_) {
      // No fault plan: tile failures are a hardware-sa-tiled concept, so
      // fault.tile_rate leaves this backend (and "resilient" over it) as is.
      auto hw = std::make_shared<HardwareEvaluatorFactory>(
          request.game, request.intervals, request.hardware,
          util::Rng(request.seed));
      modeled = CNashTimingModel().run_time_s(hw->geometry().m,
                                              request.sa.iterations) *
                static_cast<double>(request.runs);
      factory = std::move(hw);
    } else {
      factory = std::make_shared<ExactEvaluatorFactory>(request.game);
    }
    auto job = std::make_unique<SaPreparedJob>(
        std::move(factory), request.intervals, request.sa, request.report_best,
        request.seed, request.runs, request.nash_eps);
    job->backend_name = name_;
    job->modeled_time_s = modeled;
    job->max_parallelism = request.max_parallelism;
    return job;
  }

 private:
  bool hardware_;
  std::string name_;
};

// ---- D-Wave proxy backends --------------------------------------------------

class DWaveJob final : public PreparedJob {
 public:
  DWaveJob(const game::BimatrixGame& game, qubo::DWaveConfig config,
           std::size_t reads, std::uint64_t seed, double nash_eps)
      : proxy_(game, std::move(config)),
        root_(seed),
        reads_(reads),
        nash_eps_(nash_eps) {}

  std::size_t num_units() const override { return reads_; }

  std::vector<SolveSample> run_unit(std::size_t unit) const override {
    // One annealer read per unit on its own keyed stream, so reads are
    // reproducible regardless of which worker performs them.
    util::Rng rng = root_.split(unit);
    std::vector<SolveSample> out;
    out.push_back(proxy_.sample_one(rng));
    verify_samples(proxy_.game(), nash_eps_, out);
    return out;
  }

 private:
  qubo::DWaveProxy proxy_;
  util::Rng root_;  // keyed splits only — never advanced
  std::size_t reads_;
  double nash_eps_;
};

class DWaveBackend final : public SolverBackend {
 public:
  DWaveBackend(std::string name, qubo::DWaveConfig (*config)(),
               DWaveTimingParams (*timing)())
      : name_(std::move(name)), config_(config), timing_(timing) {}

  const std::string& name() const override { return name_; }

  std::string describe() const override {
    return config_().name +
           ": S-QUBO annealer proxy, pure strategies only "
           "(runs = reads, seed)";
  }

  std::unique_ptr<PreparedJob> prepare(
      const SolveRequest& request) const override {
    auto job = std::make_unique<DWaveJob>(request.game, config_(),
                                          request.runs, request.seed,
                                          request.nash_eps);
    const DWaveTimingParams timing = timing_();
    job->backend_name = name_;
    job->game_name = request.game.name();
    job->modeled_time_s = timing.programming_s +
                          timing.per_sample_s *
                              static_cast<double>(request.runs);
    job->max_parallelism = request.max_parallelism;
    return job;
  }

 private:
  std::string name_;
  qubo::DWaveConfig (*config_)();
  DWaveTimingParams (*timing_)();
};

// ---- Exact ground-truth backends --------------------------------------------

SolveSample equilibrium_sample(const game::BimatrixGame& game,
                               const game::Equilibrium& eq, double nash_eps) {
  SolveSample s;
  s.p = eq.p;
  s.q = eq.q;
  s.objective = game::equilibrium_gap(game, eq.p, eq.q);
  std::vector<SolveSample> one{std::move(s)};
  verify_samples(game, nash_eps, one);
  return std::move(one.front());
}

class LemkeHowsonJob final : public PreparedJob {
 public:
  LemkeHowsonJob(game::BimatrixGame game, double nash_eps)
      : game_(std::move(game)),
        labels_(game_.num_actions1() + game_.num_actions2()),
        nash_eps_(nash_eps) {}

  std::size_t num_units() const override { return labels_; }

  std::vector<SolveSample> run_unit(std::size_t unit) const override {
    const std::optional<game::Equilibrium> eq =
        game::lemke_howson(game_, unit);
    if (!eq) return {};
    return {equilibrium_sample(game_, *eq, nash_eps_)};
  }

  void finalize(SolveReport& report) const override {
    // Different initial labels often pivot to the same equilibrium; keep the
    // first occurrence in label order (deterministic).
    std::vector<SolveSample> unique;
    for (SolveSample& s : report.samples) {
      const bool seen = std::any_of(
          unique.begin(), unique.end(), [&](const SolveSample& u) {
            if (u.p.size() != s.p.size() || u.q.size() != s.q.size())
              return false;
            for (std::size_t i = 0; i < u.p.size(); ++i)
              if (std::abs(u.p[i] - s.p[i]) > 1e-6) return false;
            for (std::size_t j = 0; j < u.q.size(); ++j)
              if (std::abs(u.q[j] - s.q[j]) > 1e-6) return false;
            return true;
          });
      if (!seen) unique.push_back(std::move(s));
    }
    report.samples = std::move(unique);
  }

 private:
  game::BimatrixGame game_;
  std::size_t labels_;
  double nash_eps_;
};

class LemkeHowsonBackend final : public SolverBackend {
 public:
  const std::string& name() const override { return name_; }

  std::string describe() const override {
    return "Lemke-Howson complementary pivoting from every initial label, "
           "deduplicated (runs/seed ignored)";
  }

  std::unique_ptr<PreparedJob> prepare(
      const SolveRequest& request) const override {
    auto job = std::make_unique<LemkeHowsonJob>(request.game,
                                                request.nash_eps);
    job->backend_name = name_;
    job->game_name = request.game.name();
    job->max_parallelism = request.max_parallelism;
    return job;
  }

 private:
  std::string name_ = "lemke-howson";
};

class SupportEnumJob final : public PreparedJob {
 public:
  SupportEnumJob(game::BimatrixGame game, double nash_eps)
      : game_(std::move(game)), nash_eps_(nash_eps) {}

  std::size_t num_units() const override { return 1; }

  std::vector<SolveSample> run_unit(std::size_t) const override {
    const game::SupportEnumResult result = game::support_enumeration(game_);
    std::vector<SolveSample> out;
    out.reserve(result.equilibria.size());
    for (const game::Equilibrium& eq : result.equilibria)
      out.push_back(equilibrium_sample(game_, eq, nash_eps_));
    return out;
  }

 private:
  game::BimatrixGame game_;
  double nash_eps_;
};

class SupportEnumBackend final : public SolverBackend {
 public:
  const std::string& name() const override { return name_; }

  std::string describe() const override {
    return "exhaustive support enumeration, the ground-truth solver "
           "(runs/seed ignored)";
  }

  std::unique_ptr<PreparedJob> prepare(
      const SolveRequest& request) const override {
    auto job = std::make_unique<SupportEnumJob>(request.game,
                                                request.nash_eps);
    job->backend_name = name_;
    job->game_name = request.game.name();
    job->max_parallelism = request.max_parallelism;
    return job;
  }

 private:
  std::string name_ = "support-enum";
};

}  // namespace

// ---- Registry ---------------------------------------------------------------

void SolverRegistry::add(std::unique_ptr<SolverBackend> backend) {
  if (!backend) throw std::invalid_argument("SolverRegistry: null backend");
  if (find(backend->name()))
    throw std::invalid_argument("SolverRegistry: duplicate backend \"" +
                                backend->name() + "\"");
  backends_.push_back(std::move(backend));
}

const SolverBackend* SolverRegistry::find(const std::string& name) const {
  for (const auto& b : backends_)
    if (b->name() == name) return b.get();
  return nullptr;
}

const SolverBackend& SolverRegistry::at(const std::string& name) const {
  if (const SolverBackend* b = find(name)) return *b;
  std::string known;
  for (const auto& b : backends_) {
    if (!known.empty()) known += ", ";
    known += b->name();
  }
  throw std::invalid_argument("unknown solver backend \"" + name +
                              "\" (registered: " + known + ")");
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b->name());
  return out;
}

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry;
    r->add(std::make_unique<SaBackend>(true));
    r->add(chip::make_tiled_backend());
    r->add(std::make_unique<SaBackend>(false));
    r->add(std::make_unique<DWaveBackend>(
        "dwave-2000q6", qubo::dwave_2000q6_config, dwave_2000q6_timing));
    r->add(std::make_unique<DWaveBackend>("dwave-advantage41",
                                          qubo::dwave_advantage41_config,
                                          dwave_advantage41_timing));
    r->add(std::make_unique<LemkeHowsonBackend>());
    r->add(std::make_unique<SupportEnumBackend>());
    r->add(make_resilient_backend());
    return r;
  }();
  return *registry;
}

}  // namespace cnash::core
