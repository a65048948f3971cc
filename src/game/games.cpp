#include "game/games.hpp"

namespace cnash::game {

BimatrixGame battle_of_sexes() {
  return BimatrixGame(la::Matrix{{2, 0}, {0, 1}}, la::Matrix{{1, 0}, {0, 2}},
                      "Battle of the Sexes");
}

BimatrixGame bird_game() {
  // Symmetric coordination among three nesting behaviours; behaviours 1 and 2
  // are twice as valuable as behaviour 3 when matched, all mismatches score 0.
  const la::Matrix a{{2, 0, 0},  //
                     {0, 2, 0},
                     {0, 0, 1}};
  return BimatrixGame(a, a.transposed(), "Bird Game");
}

BimatrixGame modified_prisoners_dilemma() {
  // Payoffs scaled by 10 to keep every entry an integer (hardware-friendly).
  // Actions 0..4 are cooperative ventures: 10 when both players pick the same
  // venture, 0 against anything else.
  constexpr std::size_t kActions = 8;
  la::Matrix a(kActions, kActions, 0.0);
  for (std::size_t v = 0; v < 5; ++v) a(v, v) = 10.0;
  // Defect earns a guaranteed 1 against any cooperative venture but is never a
  // best response (even the thinnest 5-way cooperation pays 10/5 = 2 > 1),
  // and defect-vs-defect is mutually destructive; the spite actions are
  // strictly dominated. Every equilibrium therefore lives on the ventures:
  // C(5,1)+...+C(5,5) = 31 equilibria (index sum 5-10+10-5+1 = +1, consistent
  // with the index theorem — see DESIGN.md on why the paper's target of 25 is
  // not realisable by a non-degenerate game of this shape).
  for (std::size_t j = 0; j < 5; ++j) a(5, j) = 1.0;
  for (std::size_t j = 5; j < kActions; ++j) a(5, j) = -10.0;
  for (std::size_t i = 6; i < kActions; ++i)
    for (std::size_t j = 0; j < kActions; ++j) a(i, j) = -12.0;
  return BimatrixGame(a, a.transposed(), "Modified Prisoner's Dilemma");
}

BimatrixGame prisoners_dilemma() {
  // (Cooperate, Defect); payoffs are years-of-freedom style utilities.
  return BimatrixGame(la::Matrix{{3, 0}, {5, 1}}, la::Matrix{{3, 5}, {0, 1}},
                      "Prisoner's Dilemma");
}

BimatrixGame matching_pennies() {
  return BimatrixGame::zero_sum(la::Matrix{{1, -1}, {-1, 1}},
                                "Matching Pennies");
}

BimatrixGame rock_paper_scissors() {
  return BimatrixGame::zero_sum(la::Matrix{{0, -1, 1}, {1, 0, -1}, {-1, 1, 0}},
                                "Rock-Paper-Scissors");
}

BimatrixGame chicken() {
  // (Dare, Chicken).
  return BimatrixGame(la::Matrix{{0, 7}, {2, 6}}, la::Matrix{{0, 2}, {7, 6}},
                      "Chicken");
}

BimatrixGame stag_hunt() {
  return BimatrixGame(la::Matrix{{4, 1}, {3, 3}}, la::Matrix{{4, 3}, {1, 3}},
                      "Stag Hunt");
}

BimatrixGame coordination(std::size_t n) {
  la::Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = static_cast<double>(n - i);
  return BimatrixGame(a, a.transposed(),
                      "Coordination-" + std::to_string(n));
}

std::vector<BenchmarkInstance> paper_benchmarks() {
  return {
      {battle_of_sexes(), /*intervals=*/12, /*sa_iterations=*/10000,
       /*expected_equilibria=*/3, /*paper_target=*/3},
      {bird_game(), /*intervals=*/12, /*sa_iterations=*/15000,
       /*expected_equilibria=*/7, /*paper_target=*/6},
      {modified_prisoners_dilemma(), /*intervals=*/60, /*sa_iterations=*/50000,
       /*expected_equilibria=*/31, /*paper_target=*/25},
  };
}

}  // namespace cnash::game
