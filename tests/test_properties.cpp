// Parameterised property sweeps (TEST_P) over games, quantization intervals
// and hardware settings — the invariants every configuration must satisfy.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "chip/tiled_two_phase.hpp"
#include "core/maxqubo.hpp"
#include "game/games.hpp"
#include "game/random_games.hpp"
#include "game/support_enum.hpp"
#include "util/rng.hpp"

namespace cnash::core {
namespace {

// ---------------------------------------------------------------------------
// Property: f >= 0 and f == 0 at every ground-truth equilibrium, per game.
// ---------------------------------------------------------------------------

class ObjectivePropertyTest : public ::testing::TestWithParam<int> {};

game::BimatrixGame game_by_index(int idx) {
  switch (idx) {
    case 0:
      return game::battle_of_sexes();
    case 1:
      return game::bird_game();
    case 2:
      return game::modified_prisoners_dilemma();
    case 3:
      return game::prisoners_dilemma();
    case 4:
      return game::matching_pennies();
    case 5:
      return game::rock_paper_scissors();
    case 6:
      return game::chicken();
    case 7:
      return game::stag_hunt();
    default:
      return game::coordination(static_cast<std::size_t>(idx - 4));
  }
}

TEST_P(ObjectivePropertyTest, NonNegativeAndZeroAtEquilibria) {
  const auto g = game_by_index(GetParam());
  ExactMaxQubo f(g);
  util::Rng rng(1000 + GetParam());
  for (int t = 0; t < 300; ++t) {
    la::Vector p(g.num_actions1()), q(g.num_actions2());
    double sp = 0, sq = 0;
    for (auto& x : p) sp += (x = -std::log(1 - rng.uniform()));
    for (auto& x : q) sq += (x = -std::log(1 - rng.uniform()));
    for (auto& x : p) x /= sp;
    for (auto& x : q) x /= sq;
    EXPECT_GE(f.evaluate_continuous(p, q), -1e-10);
  }
  for (const auto& eq : game::all_equilibria(g))
    EXPECT_NEAR(f.evaluate_continuous(eq.p, eq.q), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(AllGames, ObjectivePropertyTest,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Property: quantized grid math is exact for every interval count.
// ---------------------------------------------------------------------------

class IntervalPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(IntervalPropertyTest, RandomProfilesStayOnSimplex) {
  const std::uint32_t intervals = GetParam();
  util::Rng rng(2000 + intervals);
  for (int t = 0; t < 200; ++t) {
    auto s = game::QuantizedStrategy::random(5, intervals, rng);
    // Random tick moves preserve the simplex.
    for (int m = 0; m < 20; ++m) {
      std::size_t from = 0;
      for (std::size_t i = 0; i < 5; ++i)
        if (s.count(i) > 0) from = i;
      s.move_tick(from, rng.uniform_index(5));
    }
    const la::Vector d = s.to_distribution();
    EXPECT_TRUE(game::is_distribution(d, 1e-12));
    EXPECT_EQ(game::QuantizedStrategy::from_distribution(d, intervals), s);
  }
}

TEST_P(IntervalPropertyTest, PureStrategiesAlwaysRepresentable) {
  const std::uint32_t intervals = GetParam();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto s = game::QuantizedStrategy::pure(4, i, intervals);
    EXPECT_TRUE(
        game::QuantizedStrategy::representable(s.to_distribution(), intervals));
  }
}

INSTANTIATE_TEST_SUITE_P(Intervals, IntervalPropertyTest,
                         ::testing::Values(2u, 4u, 8u, 12u, 24u, 60u));

// ---------------------------------------------------------------------------
// Property: hardware objective tracks the exact objective across ADC bits.
// ---------------------------------------------------------------------------

class AdcPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(AdcPropertyTest, HardwareErrorShrinksWithResolution) {
  const unsigned bits = GetParam();
  TwoPhaseConfig cfg;
  cfg.array.ideal = true;
  cfg.wta.offset_sigma = 0.0;
  cfg.wta.read_noise_rel = 0.0;
  cfg.adc_noise_rel = 0.0;
  cfg.adc_bits = bits;
  const auto g = game::battle_of_sexes();
  // The evaluator "hardware-sa" runs: one chip tile per array.
  auto hw = chip::single_tile_evaluator(g, 12, cfg, util::Rng(3000 + bits));
  ExactMaxQubo exact(g);
  util::Rng rng(4000 + bits);
  double worst = 0.0;
  for (int t = 0; t < 100; ++t) {
    game::QuantizedProfile prof{game::QuantizedStrategy::random(2, 12, rng),
                                game::QuantizedStrategy::random(2, 12, rng)};
    worst = std::max(worst, std::abs(hw.evaluate(prof) - exact.evaluate(prof)));
  }
  // 4 conversions, each within ~1 LSB of the ±-combined full scale (~2.9 in
  // payoff units at I=12/t=2).
  const double lsb_value = 1.2 * 3.0 / std::pow(2.0, bits);
  EXPECT_LE(worst, 6.0 * lsb_value + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AdcBits, AdcPropertyTest,
                         ::testing::Values(8u, 10u, 12u, 14u));

// ---------------------------------------------------------------------------
// Property: support enumeration output always verifies, across game sizes.
// ---------------------------------------------------------------------------

class RandomGamePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomGamePropertyTest, EquilibriaVerifyAndExist) {
  const auto [n, m] = GetParam();
  util::Rng rng(5000 + 10 * n + m);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = game::random_game(n, m, rng);
    const auto eqs = game::all_equilibria(g);
    EXPECT_GE(eqs.size(), 1u);
    for (const auto& e : eqs) {
      EXPECT_TRUE(game::is_nash_equilibrium(g, e.p, e.q, 1e-6));
      EXPECT_TRUE(game::is_distribution(e.p));
      EXPECT_TRUE(game::is_distribution(e.q));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomGamePropertyTest,
    ::testing::Values(std::make_tuple(2, 2), std::make_tuple(2, 3),
                      std::make_tuple(3, 3), std::make_tuple(3, 4),
                      std::make_tuple(4, 4), std::make_tuple(5, 5)));

// ---------------------------------------------------------------------------
// Property: MAX-QUBO is invariant under common payoff shifts, per shift.
// ---------------------------------------------------------------------------

class ShiftPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ShiftPropertyTest, ObjectiveShiftInvariant) {
  const double shift = GetParam();
  util::Rng rng(6000);
  const auto g = game::random_game(3, 3, rng);
  la::Matrix m2 = g.payoff1();
  la::Matrix n2 = g.payoff2();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      m2(r, c) += shift;
      n2(r, c) += shift;
    }
  ExactMaxQubo f1(g);
  ExactMaxQubo f2(game::BimatrixGame(m2, n2, "shifted"));
  for (int t = 0; t < 50; ++t) {
    la::Vector p(3), q(3);
    double sp = 0, sq = 0;
    for (auto& x : p) sp += (x = rng.uniform(0.01, 1.0));
    for (auto& x : q) sq += (x = rng.uniform(0.01, 1.0));
    for (auto& x : p) x /= sp;
    for (auto& x : q) x /= sq;
    EXPECT_NEAR(f1.evaluate_continuous(p, q), f2.evaluate_continuous(p, q),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, ShiftPropertyTest,
                         ::testing::Values(-10.0, -1.0, 0.5, 3.0, 100.0));

}  // namespace
}  // namespace cnash::core
