// Tests for the extensions beyond the paper's core: fault injection in the
// crossbar, the silicon-area model, and support-biased SA initialization.

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/strategy.hpp"
#include "game/support_enum.hpp"
#include "util/rng.hpp"
#include "xbar/area.hpp"
#include "xbar/array.hpp"
#include "xbar/energy.hpp"

namespace cnash {
namespace {

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

xbar::ProgrammedCrossbar make_xbar(double stuck_off, double stuck_on,
                                   std::uint64_t seed = 77) {
  xbar::CrossbarMapping map(la::Matrix{{3, 1}, {2, 4}}, 8);
  xbar::ArrayConfig cfg;
  cfg.ideal = true;
  cfg.stuck_off_rate = stuck_off;
  cfg.stuck_on_rate = stuck_on;
  util::Rng rng(seed);
  return xbar::ProgrammedCrossbar(std::move(map), cfg, rng);
}

TEST(Faults, ZeroRatesChangeNothing) {
  const auto clean = make_xbar(0.0, 0.0);
  const auto also_clean = make_xbar(0.0, 0.0, 78);
  const std::vector<std::uint32_t> rows{4, 4}, groups{4, 4};
  EXPECT_DOUBLE_EQ(clean.read_vmv(rows, groups),
                   also_clean.read_vmv(rows, groups));
}

TEST(Faults, StuckOffReducesCurrent) {
  const auto clean = make_xbar(0.0, 0.0);
  const auto faulty = make_xbar(0.3, 0.0);
  const std::vector<std::uint32_t> rows{8, 8}, groups{8, 8};
  const double i_clean = clean.read_vmv(rows, groups);
  const double i_faulty = faulty.read_vmv(rows, groups);
  EXPECT_LT(i_faulty, i_clean);
  // ~30 % of conducting cells lost.
  EXPECT_NEAR(i_faulty / i_clean, 0.7, 0.08);
}

TEST(Faults, StuckOnIncreasesCurrent) {
  const auto clean = make_xbar(0.0, 0.0);
  const auto faulty = make_xbar(0.0, 0.2);
  const std::vector<std::uint32_t> rows{8, 8}, groups{8, 8};
  EXPECT_GT(faulty.read_vmv(rows, groups), clean.read_vmv(rows, groups));
}

TEST(Faults, AllStuckOffKillsArray) {
  const auto dead = make_xbar(1.0, 0.0);
  const std::vector<std::uint32_t> rows{8, 8}, groups{8, 8};
  EXPECT_DOUBLE_EQ(dead.read_vmv(rows, groups), 0.0);
}

TEST(Faults, SolverSurvivesSmallFaultRates) {
  core::SolveRequest req(game::battle_of_sexes());
  req.backend = "hardware-sa";
  req.runs = 40;
  req.intervals = 12;
  req.sa.iterations = 6000;
  req.seed = 2027;
  req.hardware.array.stuck_off_rate = 0.002;  // 0.2 % dead cells
  const auto gt = game::all_equilibria(req.game);
  std::vector<core::CandidateSolution> cands;
  for (const auto& o : core::SolverService::shared().solve(req).samples)
    cands.push_back({o.p, o.q});
  const auto r = core::classify(req.game, gt, cands, 1e-9);
  EXPECT_GE(r.success_rate(), 0.8);
}

// ---------------------------------------------------------------------------
// Area model.
// ---------------------------------------------------------------------------

TEST(Area, BreakdownSumsToTotal) {
  const xbar::AreaModel model;
  const xbar::MappingGeometry geom{3, 3, 12, 2};
  const auto a = model.crossbar(geom, 1, 3);
  EXPECT_DOUBLE_EQ(a.total_um2(), a.array_um2 + a.drivers_um2 + a.sense_um2 +
                                      a.adc_um2 + a.wta_um2 + a.logic_um2);
  EXPECT_GT(a.array_um2, 0.0);
}

TEST(Area, ArrayAreaScalesWithCells) {
  const xbar::AreaModel model;
  const xbar::MappingGeometry small{2, 2, 12, 2};
  const xbar::MappingGeometry big{8, 8, 60, 22};
  EXPECT_GT(model.crossbar(big, 1, 7).array_um2,
            100.0 * model.crossbar(small, 1, 1).array_um2);
  EXPECT_DOUBLE_EQ(model.crossbar(small, 1, 1).array_um2,
                   model.params().cell_um2 * small.total_cells());
}

TEST(Area, MacroIncludesBothCrossbarsAndLogic) {
  const xbar::AreaModel model;
  const xbar::MappingGeometry gm{3, 3, 12, 2};
  const auto one = model.crossbar(gm, 1, 3);
  const auto macro = model.macro(gm, gm);
  EXPECT_NEAR(macro.array_um2, 2.0 * one.array_um2, 1e-9);
  EXPECT_DOUBLE_EQ(macro.logic_um2, model.params().sa_logic_um2);
  EXPECT_GT(macro.total_um2(), 2.0 * one.total_um2() * 0.9);
}

TEST(Area, TiledMacroPaysTileOverheadAndHtree) {
  const xbar::AreaModel model;
  // 32 actions, I=8, t=7: monolithic 256×1792 cells vs 4×2 tiles of 64×1024.
  const xbar::MappingGeometry geom{32, 32, 8, 7};
  const auto mono = model.macro(geom, geom);
  const auto tiled = model.tiled_macro(64, 1024, 8, 8, 32, 32);
  // Fixed-size tiles waste unused lines: the tiled macro is strictly larger.
  EXPECT_GT(tiled.array_um2, mono.array_um2);
  EXPECT_GT(tiled.htree_um2, 0.0);
  EXPECT_DOUBLE_EQ(tiled.htree_um2,
                   2.0 * model.params().htree_adder_um2 * 7.0);  // 8 tiles
  EXPECT_DOUBLE_EQ(tiled.logic_um2, model.params().sa_logic_um2);
  EXPECT_DOUBLE_EQ(tiled.total_um2(),
                   tiled.array_um2 + tiled.drivers_um2 + tiled.sense_um2 +
                       tiled.adc_um2 + tiled.wta_um2 + tiled.logic_um2 +
                       tiled.htree_um2);
  // A single-tile grid pays no adders.
  EXPECT_DOUBLE_EQ(model.tiled_macro(64, 1024, 1, 1, 4, 4).htree_um2, 0.0);
}

TEST(Energy, HtreeAdderEnergyScalesWithFanin) {
  const xbar::EnergyModel model;
  EXPECT_DOUBLE_EQ(model.htree(1), 0.0);
  EXPECT_DOUBLE_EQ(model.htree(8),
                   7.0 * model.params().htree_adder_energy_j);
  EXPECT_GT(model.htree(16), model.htree(8));
}

// ---------------------------------------------------------------------------
// Support-biased initialization.
// ---------------------------------------------------------------------------

TEST(RandomSupport, AlwaysAValidComposition) {
  util::Rng rng(91);
  for (int t = 0; t < 500; ++t) {
    const auto s = game::QuantizedStrategy::random_support(8, 60, rng);
    std::uint32_t total = 0;
    for (auto c : s.counts()) total += c;
    EXPECT_EQ(total, 60u);
  }
}

TEST(RandomSupport, CoversAllSupportSizes) {
  util::Rng rng(92);
  std::vector<int> size_seen(9, 0);
  for (int t = 0; t < 2000; ++t) {
    const auto s = game::QuantizedStrategy::random_support(8, 60, rng);
    ++size_seen[game::support(s.to_distribution()).size()];
  }
  for (std::size_t sz = 1; sz <= 8; ++sz)
    EXPECT_GT(size_seen[sz], 0) << "support size " << sz << " never drawn";
}

TEST(RandomSupport, SupportSizeCappedByIntervals) {
  util::Rng rng(93);
  for (int t = 0; t < 200; ++t) {
    const auto s = game::QuantizedStrategy::random_support(8, 3, rng);
    EXPECT_LE(game::support(s.to_distribution()).size(), 3u);
  }
}

TEST(SaInit, BothModesSolveBattleOfSexes) {
  for (const auto init :
       {core::SaInit::kRandomComposition, core::SaInit::kRandomSupport}) {
    core::SolveRequest req(game::battle_of_sexes());
    req.backend = "exact-sa";
    req.runs = 30;
    req.intervals = 12;
    req.sa.iterations = 4000;
    req.sa.init = init;
    req.seed = 2028;
    const auto gt = game::all_equilibria(req.game);
    std::vector<core::CandidateSolution> cands;
    for (const auto& o : core::SolverService::shared().solve(req).samples)
      cands.push_back({o.p, o.q});
    const auto r = core::classify(req.game, gt, cands, 1e-9);
    EXPECT_GE(r.success_rate(), 0.9);
  }
}

TEST(SaInit, SupportBiasFindsPureSolutionsOnLargeGame) {
  // The reason the option exists: on the 8-action game, support-biased cold
  // starts reach pure equilibria that composition-random hot starts miss.
  core::SolveRequest req(game::modified_prisoners_dilemma());
  req.backend = "exact-sa";
  req.runs = 60;
  req.intervals = 60;
  req.sa.iterations = 8000;
  req.sa.init = core::SaInit::kRandomSupport;
  req.seed = 2029;
  const auto gt = game::all_equilibria(req.game);
  std::vector<core::CandidateSolution> cands;
  for (const auto& o : core::SolverService::shared().solve(req).samples)
    cands.push_back({o.p, o.q});
  const auto r = core::classify(req.game, gt, cands, 1e-9);
  EXPECT_GE(r.distinct_found(), 5u);
}

}  // namespace
}  // namespace cnash
