// Equivalence of the incremental two-phase fast path (crossbar delta reads +
// propose/commit) against the full-read evaluation, plus the drift-refresh
// regression, on the evaluator "hardware-sa" runs (one chip tile per array).
// Two evaluators built from the same seed share identical device sampling,
// so any disagreement is a fast-path bug, not hardware randomness.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/anneal.hpp"
#include "chip/tiled_two_phase.hpp"
#include "game/games.hpp"
#include "util/rng.hpp"

namespace cnash::core {
namespace {

TwoPhaseConfig noiseless_config() {
  TwoPhaseConfig cfg;
  cfg.array.ideal = true;
  cfg.wta.offset_sigma = 0.0;
  cfg.wta.read_noise_rel = 0.0;
  cfg.adc_noise_rel = 0.0;  // quantization stays on — it is part of the path
  return cfg;
}

using Hardware = chip::TiledTwoPhaseEvaluator;
using chip::single_tile_evaluator;

/// Draws a valid random tick move for one player of `prof`.
TickMove random_move(const game::QuantizedStrategy& s, TickMove::Player player,
                     util::Rng& rng) {
  const std::size_t n = s.num_actions();
  std::uint32_t from = 0;
  do {
    from = static_cast<std::uint32_t>(rng.uniform_index(n));
  } while (s.count(from) == 0);
  std::uint32_t to = 0;
  do {
    to = static_cast<std::uint32_t>(rng.uniform_index(n));
  } while (to == from);
  return {player, from, to};
}

/// Random walk driving evaluator `inc` through propose/commit and `full`
/// through whole-profile evaluate() on the same move sequence. Returns the
/// largest |f_inc - f_full| seen.
double walk_and_compare(Hardware& inc, Hardware& full,
                        game::BimatrixGame g, std::uint32_t intervals,
                        std::size_t steps, util::Rng& rng,
                        bool expect_exact) {
  game::QuantizedProfile prof{
      game::QuantizedStrategy::random(g.num_actions1(), intervals, rng),
      game::QuantizedStrategy::random(g.num_actions2(), intervals, rng)};
  inc.reset(prof);
  double worst = 0.0;
  for (std::size_t step = 0; step < steps; ++step) {
    TickMove moves[2];
    std::size_t count = 1;
    moves[0] = random_move(prof.p, TickMove::Player::kRow, rng);
    if (rng.bernoulli(0.5)) {
      moves[count++] = random_move(prof.q, TickMove::Player::kCol, rng);
    }
    for (std::size_t i = 0; i < count; ++i) {
      auto& s = moves[i].player == TickMove::Player::kRow ? prof.p : prof.q;
      s.move_tick(moves[i].from, moves[i].to);
    }
    const double f_inc = inc.propose(moves, count);
    const double f_full = full.evaluate(prof);
    worst = std::max(worst, std::abs(f_inc - f_full));
    if (expect_exact) {
      EXPECT_EQ(f_inc, f_full) << "step " << step;
    }
    if (rng.bernoulli(0.5)) {
      inc.commit();
    } else {
      // Rejected: revert the profile; the next propose() re-derives scratch
      // from the committed state.
      for (std::size_t i = count; i-- > 0;) {
        auto& s = moves[i].player == TickMove::Player::kRow ? prof.p : prof.q;
        s.move_tick(moves[i].to, moves[i].from);
      }
    }
  }
  return worst;
}

TEST(IncrementalTwoPhase, MatchesFullReadBitForBitWithoutNoise) {
  // With noise disabled no rng is consumed per read, so the two evaluators
  // stay aligned by construction; the post-ADC readouts must agree exactly.
  const auto g = game::bird_game();
  auto inc = single_tile_evaluator(g, 12, noiseless_config(), util::Rng(401));
  auto full = single_tile_evaluator(g, 12, noiseless_config(), util::Rng(401));
  util::Rng rng(402);
  walk_and_compare(inc, full, g, 12, 2000, rng, /*expect_exact=*/true);
}

TEST(IncrementalTwoPhase, MatchesFullReadOnAsymmetricGame) {
  // 8x8 modified PD at I=60: the largest paper instance, exercising deep
  // group counts and both-player proposals.
  const auto g = game::modified_prisoners_dilemma();
  auto inc = single_tile_evaluator(g, 60, noiseless_config(), util::Rng(403));
  auto full = single_tile_evaluator(g, 60, noiseless_config(), util::Rng(403));
  util::Rng rng(404);
  walk_and_compare(inc, full, g, 60, 1000, rng, /*expect_exact=*/true);
}

TEST(IncrementalTwoPhase, TracksFullReadWithinAdcLsbUnderNoise) {
  // Full non-idealities, noise fixed by seed: both evaluators consume one
  // identical rng draw batch per scoring, so outputs may differ only by the
  // fp drift of incremental accumulation — at most a single ADC code per
  // readout (4 readouts enter f).
  const auto g = game::bird_game();
  TwoPhaseConfig cfg;  // realistic defaults
  auto inc = single_tile_evaluator(g, 12, cfg, util::Rng(405));
  auto full = single_tile_evaluator(g, 12, cfg, util::Rng(405));
  util::Rng rng(406);
  const double worst =
      walk_and_compare(inc, full, g, 12, 1500, rng, /*expect_exact=*/false);
  const double lsb_payoff =
      inc.chip_m().current_to_value(inc.adc().lsb_current());
  EXPECT_LE(worst, 8.0 * lsb_payoff);
}

TEST(IncrementalTwoPhase, RefreshReReadsAtConfiguredInterval) {
  const auto g = game::battle_of_sexes();
  TwoPhaseConfig cfg = noiseless_config();
  cfg.refresh_interval = 16;
  auto inc = single_tile_evaluator(g, 12, cfg, util::Rng(407));
  auto full = single_tile_evaluator(g, 12, noiseless_config(), util::Rng(407));
  util::Rng rng(408);
  game::QuantizedProfile prof{
      game::QuantizedStrategy::random(2, 12, rng),
      game::QuantizedStrategy::random(2, 12, rng)};
  inc.reset(prof);
  std::size_t commits = 0;
  for (std::size_t step = 0; step < 100; ++step) {
    const TickMove mv = random_move(prof.p, TickMove::Player::kRow, rng);
    prof.p.move_tick(mv.from, mv.to);
    const double f_inc = inc.propose(&mv, 1);
    EXPECT_EQ(f_inc, full.evaluate(prof));
    inc.commit();  // every proposal committed: drift accumulates fastest
    ++commits;
    EXPECT_EQ(inc.refresh_count(), commits / cfg.refresh_interval);
  }
}

TEST(IncrementalTwoPhase, ProposeBeforeResetThrows) {
  auto hw = single_tile_evaluator(game::battle_of_sexes(), 12,
                                  noiseless_config(), util::Rng(409));
  const TickMove mv{TickMove::Player::kRow, 0, 1};
  EXPECT_THROW(hw.propose(&mv, 1), std::logic_error);
  EXPECT_THROW(hw.commit(), std::logic_error);
}

TEST(IncrementalTwoPhase, IncrementalFlagGatesProtocol) {
  TwoPhaseConfig on = noiseless_config();
  TwoPhaseConfig off = noiseless_config();
  off.incremental = false;
  auto hw_on = single_tile_evaluator(game::bird_game(), 12, on, util::Rng(410));
  auto hw_off =
      single_tile_evaluator(game::bird_game(), 12, off, util::Rng(410));
  EXPECT_NE(hw_on.incremental(), nullptr);
  EXPECT_EQ(hw_off.incremental(), nullptr);
}

TEST(IncrementalTwoPhase, SaTrajectoryIdenticalOnBothPaths) {
  // The SA loop takes the in-place propose/commit route when the evaluator
  // exposes it and the full-copy + evaluate() route otherwise; without noise
  // both must visit exactly the same states and land on the same profile.
  const auto g = game::bird_game();
  TwoPhaseConfig on = noiseless_config();
  TwoPhaseConfig off = noiseless_config();
  off.incremental = false;
  auto hw_on = single_tile_evaluator(g, 12, on, util::Rng(411));
  auto hw_off = single_tile_evaluator(g, 12, off, util::Rng(411));
  SaOptions opts;
  opts.iterations = 3000;
  util::Rng rng_a(412), rng_b(412);
  const auto res_inc = simulated_annealing(hw_on, 12, opts, rng_a);
  const auto res_full = simulated_annealing(hw_off, 12, opts, rng_b);
  EXPECT_EQ(res_inc.final_profile, res_full.final_profile);
  EXPECT_EQ(res_inc.best_profile, res_full.best_profile);
  EXPECT_EQ(res_inc.accepted, res_full.accepted);
  EXPECT_NEAR(res_inc.final_objective, res_full.final_objective, 1e-9);
}

}  // namespace
}  // namespace cnash::core
