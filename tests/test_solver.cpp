// Two-phase SA solves as SolveRequests on the shared SolverService: the
// "hardware-sa" and "exact-sa" backends find the paper games' equilibria,
// and a request's seed alone fixes its samples.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"

namespace cnash::core {
namespace {

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

std::vector<SolveSample> run(const SolveRequest& req) {
  return SolverService::shared().solve(req).samples;
}

/// Byte-level fingerprint of a sample vector: exact doubles and profiles.
std::string fingerprint(const std::vector<SolveSample>& samples) {
  std::string fp;
  const auto append_bits = [&fp](double v) {
    const char* bytes = reinterpret_cast<const char*>(&v);
    fp.append(bytes, sizeof(v));
  };
  for (const auto& s : samples) {
    fp += s.profile->key();
    fp += '|';
    append_bits(s.objective);
    for (double x : s.p) append_bits(x);
    for (double x : s.q) append_bits(x);
    fp += '\n';
  }
  return fp;
}

int nash_count(const game::BimatrixGame& g,
               const std::vector<SolveSample>& samples) {
  int nash = 0;
  for (const auto& s : samples)
    if (game::is_nash_equilibrium(g, s.p, s.q, 1e-9)) ++nash;
  return nash;
}

TEST(Solver, ExactBackendSolvesBattleOfSexes) {
  const auto samples =
      run(sa_request(game::battle_of_sexes(), "exact-sa", 30, 81, 4000));
  ASSERT_EQ(samples.size(), 30u);
  EXPECT_GE(nash_count(game::battle_of_sexes(), samples), 27);
}

TEST(Solver, HardwareBackendSolvesBattleOfSexes) {
  const auto samples =
      run(sa_request(game::battle_of_sexes(), "hardware-sa", 20, 82, 4000));
  ASSERT_EQ(samples.size(), 20u);
  EXPECT_GE(nash_count(game::battle_of_sexes(), samples), 15);
}

TEST(Solver, FindsBothPureAndMixedSolutions) {
  const game::BimatrixGame g = game::battle_of_sexes();
  const auto gt = game::all_equilibria(g);
  std::vector<CandidateSolution> cands;
  for (const auto& s : run(sa_request(g, "exact-sa", 60, 83, 5000)))
    cands.push_back({s.p, s.q});
  const auto report = classify(g, gt, cands, 1e-9);
  EXPECT_GT(report.pure_successes, 0u);
  EXPECT_GT(report.mixed_successes, 0u);
  EXPECT_EQ(report.target(), 3u);
  EXPECT_EQ(report.distinct_found(), 3u);  // all three BoS equilibria
}

TEST(Solver, DeterministicGivenSeed) {
  const SolveRequest req =
      sa_request(game::bird_game(), "exact-sa", 5, 84, 500);
  EXPECT_EQ(fingerprint(run(req)), fingerprint(run(req)));
}

TEST(Solver, DifferentSeedsProduceDifferentRuns) {
  SolveRequest a = sa_request(game::bird_game(), "exact-sa", 8, 1, 600);
  SolveRequest b = sa_request(game::bird_game(), "exact-sa", 8, 2, 600);
  a.max_parallelism = b.max_parallelism = 2;
  EXPECT_NE(fingerprint(run(a)), fingerprint(run(b)));
}

TEST(Solver, ReportBestOptionNeverWorseThanFinal) {
  // Same seed => same per-run trajectories, so best <= final run by run.
  SolveRequest final_req =
      sa_request(game::bird_game(), "exact-sa", 10, 85, 300);
  SolveRequest best_req = final_req;
  best_req.report_best = true;
  const auto of = run(final_req);
  const auto ob = run(best_req);
  ASSERT_EQ(of.size(), ob.size());
  for (std::size_t i = 0; i < of.size(); ++i)
    EXPECT_LE(ob[i].objective, of[i].objective + 1e-12);
}

TEST(Solver, ParallelRunsStillSolve) {
  // Quality survives parallel dispatch: most runs land on equilibria.
  SolveRequest req = sa_request(game::bird_game(), "exact-sa", 24, 4321, 4000);
  req.max_parallelism = 8;
  EXPECT_GE(nash_count(game::bird_game(), run(req)), 16);
}

TEST(Solver, OutcomeDistributionsAreValid) {
  for (const auto& s : run(sa_request(game::modified_prisoners_dilemma(),
                                      "exact-sa", 5, 86, 200))) {
    EXPECT_TRUE(game::is_distribution(s.p));
    EXPECT_TRUE(game::is_distribution(s.q));
  }
}

}  // namespace
}  // namespace cnash::core
