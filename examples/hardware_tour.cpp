// Hardware tour: walks through every analog component of the C-Nash
// architecture bottom-up — FeFET device, 1FeFET1R cell, crossbar mapping,
// WTA tree, ADC — and shows one full two-phase objective evaluation with all
// intermediate currents, latency and energy.

#include <cstdio>

#include "chip/tiled_two_phase.hpp"
#include "core/timing.hpp"
#include "fefet/cell_1t1r.hpp"
#include "fefet/preisach.hpp"
#include "game/games.hpp"
#include "util/rng.hpp"
#include "wta/wta_tree.hpp"
#include "xbar/energy.hpp"

int main() {
  using namespace cnash;

  std::printf("=== 1. FeFET device (Fig. 2) ===\n");
  fefet::PreisachFerroelectric fe;
  fe.apply_pulse(4.0);
  std::printf("after +4V write pulse: P = %+.2f, V_TH = %.2f V (logic '1')\n",
              fe.polarization(), fe.threshold_voltage());
  fe.apply_pulse(-4.0);
  std::printf("after -4V write pulse: P = %+.2f, V_TH = %.2f V (logic '0')\n",
              fe.polarization(), fe.threshold_voltage());

  const fefet::VariabilityParams var;
  fefet::Cell1T1R on_cell(true, {0.0, var.r_nominal});
  fefet::Cell1T1R off_cell(false, {0.0, var.r_nominal});
  std::printf("1FeFET1R read currents: ON = %.3e A, OFF = %.3e A (window %.0fx)\n\n",
              on_cell.read(true, true), off_cell.read(true, true),
              on_cell.read(true, true) / off_cell.read(true, true));

  std::printf("=== 2. Bi-crossbar mapping (Fig. 4) ===\n");
  const game::BimatrixGame g = game::bird_game();
  const std::uint32_t intervals = 12;
  core::TwoPhaseConfig cfg;
  // One chip tile per array: the single-array datapath of the paper.
  auto hw = chip::single_tile_evaluator(g, intervals, cfg, util::Rng(5));
  const auto& geom = hw.chip_m().mapping().geometry();
  std::printf("game %s: payoff matrix %zux%zu, I=%u, t=%u cells/element\n",
              g.name().c_str(), geom.n, geom.m, geom.intervals,
              geom.cells_per_element);
  std::printf("crossbar M: %zu x %zu = %zu 1FeFET1R cells\n", geom.total_rows(),
              geom.total_cols(), geom.total_cells());

  std::printf("\n=== 3. WTA tree (Fig. 5) ===\n");
  const auto& tree = hw.wta_rows();
  std::printf("%zu inputs -> %zu two-input cells, depth %zu, latency %.3f ns\n",
              tree.num_inputs(), tree.num_cells(), tree.depth(),
              tree.latency_s() * 1e9);

  std::printf("\n=== 4. Two-phase evaluation (Fig. 6) ===\n");
  game::QuantizedProfile prof{
      game::QuantizedStrategy::from_distribution({0.25, 0.25, 0.5}, intervals),
      game::QuantizedStrategy::from_distribution({0.25, 0.25, 0.5}, intervals)};
  const double f = hw.evaluate(prof);
  const auto& r = hw.last_readout();
  std::printf("profile p=q=(0.25,0.25,0.50) — a mixed NE of the bird game\n");
  std::printf("phase 1: max(Mq)  = %.4f, max(Ntp) = %.4f (payoff units)\n",
              r.max_mq, r.max_ntp);
  std::printf("phase 2: ptMq     = %.4f, ptNq     = %.4f\n", r.vmv_m, r.vmv_n);
  std::printf("objective f = %.5f  (0 at a Nash equilibrium)\n", f);

  std::printf("\n=== 5. Latency & energy models ===\n");
  const core::CNashTimingModel timing;
  std::printf("analog path: %.2f ns/iteration, controller-bound: %.2f us\n",
              timing.analog_path_s(geom) * 1e9, timing.iteration_s(geom) * 1e6);
  const xbar::EnergyModel energy;
  const auto breakdown = energy.array_read(
      2e-4, geom.total_rows(), geom.total_cols(), geom.n + 1);
  std::printf("one array read: %.2f pJ (crossbar %.2f + lines %.2f + ADC %.2f)\n",
              breakdown.total() * 1e12, breakdown.crossbar_j * 1e12,
              breakdown.lines_j * 1e12, breakdown.adc_j * 1e12);
  return 0;
}
