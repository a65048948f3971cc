// Quickstart: solve "Battle of the Sexes" on the C-Nash hardware model.
//
//   $ ./quickstart [--threads N]
//
// Runs a batch of two-phase simulated-annealing descents as one "hardware-sa"
// SolveRequest on the shared SolverService — each run programs its own FeFET
// bi-crossbar with the payoff matrices, and at most N runs are in flight
// (same results for any N) — then prints every distinct Nash equilibrium
// found (pure and mixed), cross-checked against the exact
// support-enumeration ground truth.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"

int main(int argc, char** argv) {
  using namespace cnash;

  std::size_t threads = 0;  // 0 = one worker per hardware thread
  for (int a = 1; a + 1 < argc; ++a)
    if (!std::strcmp(argv[a], "--threads"))
      threads = std::strtoul(argv[a + 1], nullptr, 10);

  const game::BimatrixGame g = game::battle_of_sexes();
  std::printf("%s\n", g.to_string().c_str());

  // 1. Describe the job: probability grid I=12 (the mixed equilibrium
  //    (2/3,1/3)x(1/3,2/3) lies exactly on this grid), 10000 SA iterations as
  //    in the paper, full hardware model (device variability, WTA offsets,
  //    ADC quantization). Each run gets its own keyed RNG stream and its own
  //    hardware instance, so the batch parallelises without changing results.
  core::SolveRequest req(g);
  req.backend = "hardware-sa";
  req.intervals = 12;
  req.sa.iterations = 10000;
  req.seed = 2024;
  req.max_parallelism = threads;

  // 2. Run 50 annealing descents and collect the solutions.
  req.runs = 50;
  const auto outcomes = core::SolverService::shared().solve(req).samples;

  // 3. Verify against the exact ground truth.
  const auto ground_truth = game::all_equilibria(g);
  std::vector<core::CandidateSolution> candidates;
  for (const auto& o : outcomes) candidates.push_back({o.p, o.q});
  const auto report = core::classify(g, ground_truth, candidates, 1e-9);

  std::printf("SA runs: %zu   success rate: %s%%   distinct NE found: %zu/%zu\n\n",
              report.runs, core::percent(report.success_rate()).c_str(),
              report.distinct_found(), report.target());

  std::map<std::string, std::pair<core::SolveSample, int>> distinct;
  for (const auto& o : outcomes) {
    if (!game::is_nash_equilibrium(g, o.p, o.q, 1e-9)) continue;
    auto [it, fresh] = distinct.try_emplace(o.key(), o, 0);
    ++it->second.second;
  }
  for (const auto& [key, entry] : distinct) {
    const auto& o = entry.first;
    std::printf("NE %s  p = (%.3f, %.3f)  q = (%.3f, %.3f)   hit %d times, f = %.4f\n",
                game::is_pure_profile(o.p, o.q) ? "(pure) " : "(mixed)",
                o.p[0], o.p[1], o.q[0], o.q[1], entry.second, o.objective);
  }
  return 0;
}
