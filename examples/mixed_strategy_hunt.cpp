// Mixed-strategy hunt: the capability quantum S-QUBO annealers lack.
//
// Runs the Bird Game (3 actions, 7 equilibria of which 4 are mixed) through
// both pipelines: the D-Wave-style S-QUBO proxy (binary variables — pure
// strategies only) and C-Nash (quantized mixed strategies on the I=12 grid),
// and shows which equilibria each one can reach.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"
#include "qubo/dwave_proxy.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cnash;

  std::size_t threads = 0;  // 0 = one run per service worker
  for (int a = 1; a + 1 < argc; ++a)
    if (!std::strcmp(argv[a], "--threads"))
      threads = std::strtoul(argv[a + 1], nullptr, 10);

  const game::BimatrixGame g = game::bird_game();
  const auto ground_truth = game::all_equilibria(g);
  std::printf("%s: %zu equilibria in ground truth\n\n", g.name().c_str(),
              ground_truth.size());

  // --- S-QUBO / D-Wave proxy ------------------------------------------------
  util::Rng rng(7);
  const qubo::DWaveProxy proxy(g, qubo::dwave_advantage41_config());
  std::vector<core::CandidateSolution> dwave_cands;
  for (const auto& s : proxy.run(300, rng)) dwave_cands.push_back({s.p, s.q});
  const auto dwave = core::classify(g, ground_truth, dwave_cands, 1e-9);

  // --- C-Nash ---------------------------------------------------------------
  core::SolveRequest req(g);
  req.backend = "hardware-sa";
  req.runs = 300;
  req.intervals = 12;
  req.sa.iterations = 15000;
  req.seed = 99;
  req.max_parallelism = threads;
  std::vector<core::CandidateSolution> cnash_cands;
  for (const auto& o : core::SolverService::shared().solve(req).samples)
    cnash_cands.push_back({o.p, o.q});
  const auto cnash = core::classify(g, ground_truth, cnash_cands, 1e-9);

  util::Table table({"equilibrium", "type", "S-QUBO proxy", "C-Nash"});
  for (std::size_t i = 0; i < ground_truth.size(); ++i) {
    const auto& e = ground_truth[i];
    char desc[128];
    std::snprintf(desc, sizeof desc, "p=(%.2f,%.2f,%.2f)", e.p[0], e.p[1],
                  e.p[2]);
    table.add_row({desc, e.pure ? "pure" : "mixed",
                   dwave.hits[i] ? "found" : "missed",
                   cnash.hits[i] ? "found" : "missed"});
  }
  std::printf("%s\n", table.pretty().c_str());
  std::printf("S-QUBO proxy: %zu/%zu distinct (%s%% success)\n",
              dwave.distinct_found(), dwave.target(),
              core::percent(dwave.success_rate()).c_str());
  std::printf("C-Nash:       %zu/%zu distinct (%s%% success)\n",
              cnash.distinct_found(), cnash.target(),
              core::percent(cnash.success_rate()).c_str());
  return 0;
}
