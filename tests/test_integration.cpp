// End-to-end integration tests: the full C-Nash stack (game -> bi-crossbar ->
// WTA -> two-phase SA -> metrics) against the ground-truth solvers, plus the
// S-QUBO / D-Wave proxy pipeline on the same games.

#include <gtest/gtest.h>

#include <string>

#include "core/metrics.hpp"
#include "core/service.hpp"
#include "core/timing.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"
#include "qubo/dwave_proxy.hpp"

namespace cnash::core {
namespace {

/// A two-phase SA job on the I = 12 grid.
SolveRequest sa_request(game::BimatrixGame g, const std::string& backend,
                        std::size_t runs, std::uint64_t seed,
                        std::size_t iterations) {
  SolveRequest req(std::move(g));
  req.backend = backend;
  req.runs = runs;
  req.intervals = 12;
  req.sa.iterations = iterations;
  req.seed = seed;
  return req;
}

std::vector<CandidateSolution> solve_candidates(const SolveRequest& req) {
  std::vector<CandidateSolution> c;
  for (const auto& o : SolverService::shared().solve(req).samples)
    c.push_back({o.p, o.q});
  return c;
}

TEST(Integration, CNashFindsAllBattleOfSexesSolutionsOnHardware) {
  const auto g = game::battle_of_sexes();
  const auto gt = game::all_equilibria(g);
  const auto report = classify(
      g, gt, solve_candidates(sa_request(g, "hardware-sa", 60, 91, 6000)),
      1e-9);
  EXPECT_GE(report.success_rate(), 0.9);
  EXPECT_EQ(report.distinct_found(), 3u);
}

TEST(Integration, CNashFindsMixedBirdGameSolutionsOnHardware) {
  const auto g = game::bird_game();
  const auto gt = game::all_equilibria(g);
  const auto report = classify(
      g, gt, solve_candidates(sa_request(g, "hardware-sa", 80, 92, 8000)),
      1e-9);
  EXPECT_GE(report.success_rate(), 0.6);
  EXPECT_GT(report.mixed_successes, 0u);
  EXPECT_GE(report.distinct_found(), 5u);
}

TEST(Integration, DWaveProxyFindsOnlyPureSolutions) {
  util::Rng rng(93);
  const auto g = game::bird_game();
  const auto gt = game::all_equilibria(g);
  const qubo::DWaveProxy proxy(g, qubo::dwave_2000q6_config());
  std::vector<CandidateSolution> cands;
  for (const auto& s : proxy.run(100, rng)) cands.push_back({s.p, s.q});
  const auto report = classify(g, gt, cands, 1e-9);
  EXPECT_EQ(report.mixed_successes, 0u);  // binary variables: pure only
  EXPECT_LE(report.distinct_found(), 3u);
}

TEST(Integration, CNashBeatsDWaveProxyOnSolutionCoverage) {
  // The headline qualitative claim: C-Nash recovers pure AND mixed equilibria,
  // the S-QUBO annealer only a subset of the pure ones.
  const auto g = game::bird_game();
  const auto gt = game::all_equilibria(g);

  const auto cnash_report = classify(
      g, gt, solve_candidates(sa_request(g, "hardware-sa", 80, 94, 8000)),
      1e-9);

  util::Rng rng(95);
  const qubo::DWaveProxy proxy(g, qubo::dwave_advantage41_config());
  std::vector<CandidateSolution> dwave_cands;
  for (const auto& s : proxy.run(80, rng)) dwave_cands.push_back({s.p, s.q});
  const auto dwave_report = classify(g, gt, dwave_cands, 1e-9);

  EXPECT_GT(cnash_report.distinct_found(), dwave_report.distinct_found());
}

TEST(Integration, CNashTimeToSolutionBeatsDWaveModel) {
  const xbar::MappingGeometry geom{2, 2, 12, 2};
  const CNashTimingModel cnash_t;
  const DWaveTimingModel dwave_t(dwave_2000q6_timing());
  const double c = cnash_t.time_to_solution_s(geom, 10000, 1.0);
  const double d = dwave_t.time_to_solution_s(0.99);
  EXPECT_GT(d / c, 50.0);
}

TEST(Integration, ExactAndHardwareBackendsAgreeOnSuccess) {
  const auto g = game::battle_of_sexes();
  const auto gt = game::all_equilibria(g);
  const auto rh = classify(
      g, gt, solve_candidates(sa_request(g, "hardware-sa", 40, 96, 5000)),
      1e-9);
  const auto rs = classify(
      g, gt, solve_candidates(sa_request(g, "exact-sa", 40, 96, 5000)), 1e-9);
  EXPECT_NEAR(rh.success_rate(), rs.success_rate(), 0.25);
}

TEST(Integration, ModifiedPdHardwareRunsEndToEnd) {
  // Smoke-scale version of the paper's largest instance (I = 60 grid).
  SolveRequest req = sa_request(game::modified_prisoners_dilemma(),
                                "hardware-sa", 3, 97, 3000);
  req.intervals = 60;
  for (const auto& o : SolverService::shared().solve(req).samples) {
    EXPECT_TRUE(game::is_distribution(o.p));
    EXPECT_TRUE(game::is_distribution(o.q));
    EXPECT_GE(o.objective, -1.0);  // hardware noise can dip slightly below 0
  }
}

}  // namespace
}  // namespace cnash::core
