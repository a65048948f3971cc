// Replica-exchange ensembles (the one lockstep SA driver) and the SA unit
// contract shared by hardware-sa / exact-sa: an independent-mode unit is one
// scalar run on fixed keyed streams, and a report does not depend on the SIMD
// dispatch level.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/anneal.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "game/games.hpp"
#include "simd/simd.hpp"
#include "util/rng.hpp"

namespace cnash::core {
namespace {

// The per-run key scheme of SaPreparedJob: run r's evaluator instance key is
// 2r, its SA stream key 2r + 1.
constexpr std::uint64_t instance_key(std::uint64_t run) { return 2 * run; }
constexpr std::uint64_t stream_key(std::uint64_t run) { return 2 * run + 1; }

// Unit u of a prepared independent-mode job is exactly one scalar run on
// instance key 2u and stream key 2u + 1 of the job's root seed: bitwise, for
// the exact objective and the hardware two-phase path.
void check_units_are_keyed_scalar_runs(const SolveRequest& req,
                                       const EvaluatorFactory& factory) {
  const std::unique_ptr<PreparedJob> job =
      SolverRegistry::global().at(req.backend).prepare(req);
  ASSERT_EQ(job->num_units(), req.runs);
  const util::Rng root(req.seed);
  for (std::size_t u = 0; u < req.runs; ++u) {
    auto objective = factory.create(instance_key(u));
    util::Rng rng = root.split(stream_key(u));
    const SaRunResult ref =
        simulated_annealing(*objective, req.intervals, req.sa, rng);
    const std::vector<SolveSample> out = job->run_unit(u);
    ASSERT_EQ(out.size(), 1u) << "unit " << u;
    EXPECT_EQ(out[0].profile, ref.final_profile) << "unit " << u;
    EXPECT_EQ(out[0].objective, ref.final_objective) << "unit " << u;
    EXPECT_EQ(out[0].p, ref.final_profile.p.to_distribution()) << "unit " << u;
    EXPECT_EQ(out[0].q, ref.final_profile.q.to_distribution()) << "unit " << u;
  }
}

SolveRequest key_scheme_request(const char* backend) {
  SolveRequest req(game::bird_game());
  req.backend = backend;
  req.runs = 5;
  req.seed = 0xBA7C;
  req.sa.iterations = 600;
  return req;
}

TEST(SaUnits, ExactUnitsAreKeyedScalarRuns) {
  const SolveRequest req = key_scheme_request("exact-sa");
  check_units_are_keyed_scalar_runs(req, ExactEvaluatorFactory(req.game));
}

TEST(SaUnits, HardwareUnitsAreKeyedScalarRuns) {
  const SolveRequest req = key_scheme_request("hardware-sa");
  check_units_are_keyed_scalar_runs(
      req, HardwareEvaluatorFactory(req.game, req.intervals, req.hardware,
                                    util::Rng(req.seed)));
}

TEST(SaUnits, ExactInstancesShareOnePayoffBlock) {
  ExactEvaluatorFactory factory(game::battle_of_sexes());
  const auto a = factory.create(instance_key(0));
  const auto b = factory.create(instance_key(1));
  EXPECT_EQ(&a->game(), &b->game());
  EXPECT_EQ(&a->game(), &factory.game());
}

void expect_same_report(const SolveReport& a, const SolveReport& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  EXPECT_EQ(a.nash_count, b.nash_count);
  EXPECT_EQ(a.valid_count, b.valid_count);
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const SolveSample& sa = a.samples[i];
    const SolveSample& sb = b.samples[i];
    EXPECT_EQ(sa.objective, sb.objective) << "sample " << i;
    EXPECT_EQ(sa.profile, sb.profile) << "sample " << i;
    EXPECT_EQ(sa.is_nash, sb.is_nash) << "sample " << i;
    ASSERT_EQ(sa.p.size(), sb.p.size());
    for (std::size_t j = 0; j < sa.p.size(); ++j)
      EXPECT_EQ(sa.p[j], sb.p[j]) << "sample " << i;
    for (std::size_t j = 0; j < sa.q.size(); ++j)
      EXPECT_EQ(sa.q[j], sb.q[j]) << "sample " << i;
  }
}

SolveRequest base_request(const char* backend) {
  SolveRequest req(game::bird_game());
  req.backend = backend;
  req.runs = 10;
  req.seed = 0x5EED;
  req.sa.iterations = 500;
  return req;
}

// SIMD dispatch must be invisible: a scalar-forced solve reproduces the
// vectorized solve byte for byte.
TEST(SaUnits, BackendReportInvariantUnderForcedScalar) {
  for (const char* backend : {"exact-sa", "hardware-sa"}) {
    const SolveRequest req = base_request(backend);
    ASSERT_TRUE(simd::force_level(simd::IsaLevel::kScalar));
    const SolveReport scalar = SolverRegistry::global().at(backend).solve(req);
    ASSERT_TRUE(simd::force_level(simd::max_supported_level()));
    const SolveReport vec = SolverRegistry::global().at(backend).solve(req);
    expect_same_report(scalar, vec);
  }
}

TEST(ReplicaExchange, ReplicaExchangeIsDeterministic) {
  SolveRequest req = base_request("exact-sa");
  req.sa.mode = SaMode::kReplicaExchange;
  req.runs = 4;  // 4 ensembles
  const SolveReport a = SolverRegistry::global().at("exact-sa").solve(req);
  const SolveReport b = SolverRegistry::global().at("exact-sa").solve(req);
  ASSERT_EQ(a.samples.size(), 4u);  // one winner sample per ensemble
  expect_same_report(a, b);
}

// The scenario parallel tempering exists for: a coordination game whose pure
// equilibria sit behind high barriers. The hot replicas keep tunnelling, the
// cold replica polishes — plain SA at this budget solves (almost) nothing
// (see bench_fig10_time_to_solution --re for the full iterations ladder).
TEST(ReplicaExchange, ReplicaExchangeSolvesCoordinationGame) {
  SolveRequest req(game::coordination(16));
  req.backend = "exact-sa";
  req.runs = 6;
  req.seed = 0xC00D;
  req.intervals = 4;
  req.sa.iterations = 8000;
  req.sa.mode = SaMode::kReplicaExchange;
  req.sa.replicas = 8;
  const SolveReport rep = SolverRegistry::global().at("exact-sa").solve(req);
  ASSERT_EQ(rep.samples.size(), 6u);
  EXPECT_GE(rep.nash_count, 4u);
  EXPECT_EQ(rep.valid_count, 6u);
}

TEST(ReplicaExchange, ReplicaExchangeChangesResultsVsIndependent) {
  SolveRequest req = base_request("exact-sa");
  const SolveReport ind = SolverRegistry::global().at("exact-sa").solve(req);
  req.sa.mode = SaMode::kReplicaExchange;
  const SolveReport re = SolverRegistry::global().at("exact-sa").solve(req);
  // One sample per ensemble vs one per run — same count, different law.
  EXPECT_EQ(ind.samples.size(), req.runs);
  EXPECT_EQ(re.samples.size(), req.runs);
  bool any_diff = false;
  for (std::size_t i = 0; i < re.samples.size(); ++i)
    if (ind.samples[i].key() != re.samples[i].key() ||
        ind.samples[i].objective != re.samples[i].objective)
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(ReplicaExchange, ReplicaExchangeRequestValidation) {
  SolveRequest req = base_request("exact-sa");
  req.sa.mode = SaMode::kReplicaExchange;
  req.sa.replicas = 1;
  EXPECT_THROW(validate_request(req), std::invalid_argument);
  req.sa.replicas = 8;
  req.sa.exchange_interval = 0;
  EXPECT_THROW(validate_request(req), std::invalid_argument);
  req.sa.exchange_interval = 16;
  req.sa.ladder_ratio = 1.0;
  EXPECT_THROW(validate_request(req), std::invalid_argument);
  req.sa.ladder_ratio = 1.5;
  EXPECT_NO_THROW(validate_request(req));
}

// The direct replica-exchange driver: swap moves must preserve replica
// bookkeeping invariants and respond to the ladder.
TEST(ReplicaExchange, ReplicaExchangeDriverRunsAllReplicas) {
  ExactEvaluatorFactory factory(game::bird_game());
  const std::size_t r = 4;
  std::vector<std::unique_ptr<ObjectiveEvaluator>> owned;
  std::vector<ObjectiveEvaluator*> replicas;
  std::vector<util::Rng> rngs;
  const util::Rng root(0x4E);
  for (std::size_t l = 0; l < r; ++l) {
    owned.push_back(factory.create(instance_key(l)));
    replicas.push_back(owned.back().get());
    rngs.push_back(root.split(stream_key(l)));
  }
  util::Rng swap_rng = root.split(stream_key(r) + 1);
  SaOptions opts;
  opts.iterations = 400;
  opts.replicas = r;
  const auto res = simulated_annealing_replica_exchange(replicas, 12, opts,
                                                        rngs.data(), swap_rng);
  ASSERT_EQ(res.size(), r);
  for (const SaRunResult& replica : res) {
    EXPECT_EQ(replica.iterations, opts.iterations);
    EXPECT_LE(replica.best_objective, replica.final_objective + 1e-12);
  }
}

}  // namespace
}  // namespace cnash::core
