#pragma once
// Algorithm 1: the two-phase simulated annealing controller of C-Nash.
// The SA state is a quantized strategy pair; the neighbourhood move shifts one
// 1/I probability tick per player ("randomly increment or decrement the
// action probabilities by the value of interval", Sec. 3.4); the objective is
// evaluated by an ObjectiveEvaluator (exact or hardware-backed two-phase).

#include <cstdint>
#include <vector>

#include "core/maxqubo.hpp"
#include "game/strategy.hpp"
#include "util/rng.hpp"

namespace cnash::core {

enum class SaInit {
  kRandomComposition,  // uniform over all grid points
  kRandomSupport       // uniform over support sizes, then over that face
};

/// What one work unit of an SA job runs.
enum class SaMode : std::uint8_t {
  /// One independent annealing run per unit.
  kIndependent,
  /// One ensemble per unit: replicas of ONE run at a geometric temperature
  /// ladder with periodic lockstep swap proposals (parallel tempering) — hard
  /// games converge in fewer iterations, not just faster iterations. On the
  /// analog fabric the replicas occupy concurrent crossbar banks, so a unit's
  /// modeled time is that of a single run.
  kReplicaExchange
};

struct SaOptions {
  std::size_t iterations = 10000;
  /// Initial strategy-pair generation (Alg. 1 line 1 leaves this free).
  /// Support-biased starts give every equilibrium class a comparable basin.
  SaInit init = SaInit::kRandomSupport;
  /// Start/end temperature as a fraction of the game's payoff range. The
  /// endpoint must sit well below the objective change of a single 1/I
  /// probability tick or the walk keeps wandering off the equilibrium; the
  /// start is kept low as well (warm restarts from diverse support-biased
  /// initial pairs cover the equilibrium classes far better than hot anneals,
  /// which always cool into the large-support centre of the simplex).
  double t_start_rel = 0.01;
  double t_end_rel = 0.0005;
  /// Probability that a proposal also perturbs the second player (the first
  /// perturbed player is always chosen at random).
  double both_players_prob = 0.5;

  // ---- Replica-exchange knobs ----------------------------------------------
  SaMode mode = SaMode::kIndependent;
  /// Ladder size in kReplicaExchange mode (>= 2).
  std::size_t replicas = 8;
  /// Iterations between lockstep swap-proposal rounds (>= 1).
  std::size_t exchange_interval = 16;
  /// Geometric ladder spacing: replica at ladder position k anneals at
  /// base_T * ladder_ratio^k (> 1).
  double ladder_ratio = 1.5;
};

struct SaRunResult {
  game::QuantizedProfile final_profile;
  double final_objective;
  game::QuantizedProfile best_profile;
  double best_objective;
  std::size_t accepted = 0;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  /// Replica-exchange only (zero otherwise): temperature-swap proposals this
  /// run took part in and how many were accepted. The ensemble totals are
  /// attributed to EVERY replica's result identically (a swap involves two
  /// replicas; per-ensemble rates are what ladder_ratio tuning needs), so
  /// the caller reads them off whichever replica wins.
  std::size_t swap_proposals = 0;
  std::size_t swap_accepts = 0;
};

/// One annealing run from a random initial profile.
SaRunResult simulated_annealing(ObjectiveEvaluator& objective,
                                std::uint32_t intervals, const SaOptions& opts,
                                util::Rng& rng);

/// One annealing run from an explicit initial profile.
SaRunResult simulated_annealing_from(ObjectiveEvaluator& objective,
                                     game::QuantizedProfile initial,
                                     const SaOptions& opts, util::Rng& rng);

/// One replica-exchange (parallel tempering) ensemble: replicas.size()
/// replicas anneal in lockstep at a geometric temperature ladder, replica l
/// on evaluator *replicas[l] and stream replica_rngs[l]; every
/// opts.exchange_interval iterations adjacent ladder positions propose a
/// temperature swap through `swap_rng` (exactly one uniform per proposal,
/// accepted or not — fixed draw count keeps the schedule deterministic).
/// Returns the per-replica results; the caller picks the winning replica.
std::vector<SaRunResult> simulated_annealing_replica_exchange(
    const std::vector<ObjectiveEvaluator*>& replicas, std::uint32_t intervals,
    const SaOptions& opts, util::Rng* replica_rngs, util::Rng& swap_rng);

}  // namespace cnash::core
