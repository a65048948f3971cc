#include "core/resilient.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/fault.hpp"

namespace cnash::core {

namespace {

/// Pairs the primary hardware job with its exact-sa shadow. Units map 1:1 —
/// both are SaPreparedJobs built from the same (runs, sa) — so unit u's
/// fallback reproduces the exact-sa sample for the very run the primary
/// failed to deliver.
class ResilientJob final : public PreparedJob {
 public:
  ResilientJob(std::unique_ptr<PreparedJob> primary,
               std::unique_ptr<PreparedJob> fallback, util::FaultPlan plan)
      : primary_(std::move(primary)),
        fallback_(std::move(fallback)),
        plan_(plan) {
    if (primary_->num_units() != fallback_->num_units())
      throw std::logic_error(
          "resilient: primary and fallback unit partitions diverge");
  }

  std::size_t num_units() const override { return primary_->num_units(); }

  std::vector<SolveSample> run_unit(std::size_t unit) const override {
    using Scope = util::FaultPlan::Scope;
    if (plan_.unit_delay_s > 0.0 &&
        plan_.roll(Scope::kDelay, unit, plan_.unit_delay_rate))
      std::this_thread::sleep_for(
          std::chrono::duration<double>(plan_.unit_delay_s));
    if (!plan_.roll(Scope::kUnit, unit, plan_.unit_failure_rate)) {
      try {
        return primary_->run_unit(unit);
      } catch (const std::exception&) {
        // Detected hardware failure (e.g. chip::ChipFault from the tile
        // read-back): fall through to the exact path for this unit only.
      }
    }
    std::vector<SolveSample> samples = fallback_->run_unit(unit);
    for (SolveSample& s : samples) s.fallback = true;
    return samples;
  }

 private:
  std::unique_ptr<PreparedJob> primary_;
  std::unique_ptr<PreparedJob> fallback_;
  util::FaultPlan plan_;
};

class ResilientBackend final : public SolverBackend {
 public:
  const std::string& name() const override { return name_; }

  std::string describe() const override {
    return "hardware-sa[-tiled] with transparent per-unit exact-sa fallback "
           "on chip failure (primary, fault, + the wrapped backend's knobs)";
  }

  bool needs_iterations() const override { return true; }

  std::unique_ptr<PreparedJob> prepare(
      const SolveRequest& request) const override {
    SolveRequest primary_req = request;
    primary_req.backend = request.resilient_primary;
    SolveRequest fallback_req = request;
    fallback_req.backend = "exact-sa";
    const SolverRegistry& registry = SolverRegistry::global();
    std::unique_ptr<PreparedJob> primary =
        registry.at(primary_req.backend).prepare(primary_req);
    std::unique_ptr<PreparedJob> fallback =
        registry.at(fallback_req.backend).prepare(fallback_req);

    // Report metadata comes from the primary: the modeled chip time is the
    // architecture being served (fallbacks are a software contingency and do
    // not change the modeled clock).
    const std::string game_name = primary->game_name;
    const double modeled = primary->modeled_time_s;
    auto job = std::make_unique<ResilientJob>(
        std::move(primary), std::move(fallback), request.fault);
    job->backend_name = name_;
    job->game_name = game_name;
    job->modeled_time_s = modeled;
    job->max_parallelism = request.max_parallelism;
    return job;
  }

 private:
  std::string name_ = "resilient";
};

}  // namespace

std::unique_ptr<SolverBackend> make_resilient_backend() {
  return std::make_unique<ResilientBackend>();
}

}  // namespace cnash::core
