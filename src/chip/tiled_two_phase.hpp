#pragma once
// chip::TiledTwoPhaseEvaluator — the two-phase MAX-QUBO evaluation of Fig. 6
// on the chip model, and the repository's one hardware evaluator.
//
// Phase 1: both crossbars are read in matrix-vector mode (the other player's
//          input fixed to the all-ones vector) producing the analog vectors
//          Mq and Nᵀp; the WTA trees reduce them to max(Mq) and max(Nᵀp),
//          which are digitised and recorded by the SA logic.
// Phase 2: the crossbars are read in vector-matrix-vector mode giving pᵀMq
//          and pᵀNq (the WTA trees are bypassed); the SA logic combines
//          f = max(Mq) + max(Nᵀp) − pᵀMq − pᵀNq.
//
// Both logical crossbars (M and Nᵀ) are sharded over grids of fixed-capacity
// tiles (chip/tiled_crossbar), the per-tile outputs are merged by an H-tree
// adder stage, and the merged Phase-1 line currents feed the WTA trees /
// ADCs. A grid of one tile per array (single_tile_chip) is the paper's
// single-array datapath: it is what the "hardware-sa" backend and
// core::HardwareEvaluatorFactory run.
//
// Incremental fast path (propose/commit protocol): a single SA tick move
// changes one entry of p or q by ±1/I, so only the affected tile row / column
// is re-driven (O(m+n) per move); WTA, per-read noise and ADC conversion run
// on the updated currents on every proposal, so fidelity semantics and RNG
// draw order equal the full-read path's. A commit adopts the totals the
// proposal scored and replays the moves into the per-tile partials; a full
// re-read every `refresh_interval` commits bounds floating-point drift.
//
// Readout modes (ChipConfig::readout):
//   * kAnalogHTree  — analog current summation + shared ADC. Aggregation
//                     noise is drawn only where a tree actually merges tiles,
//                     so a 1×1 grid draws exactly the single-array sequence.
//   * kPerTileAdc   — every tile output digitised by its own ADC, digital
//                     aggregation and digital max. Per-tile quantisation
//                     breaks delta linearity, so incremental() is disabled.
//   * kIdealDigital — exact integer conducting-unit counts, WTA/ADC
//                     bypassed; with integer payoffs and power-of-two I the
//                     objective is bit-identical to core::ExactMaxQubo.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "chip/chip_config.hpp"
#include "chip/tiled_crossbar.hpp"
#include "core/maxqubo.hpp"
#include "core/two_phase.hpp"
#include "game/game.hpp"
#include "util/rng.hpp"
#include "wta/wta_tree.hpp"
#include "xbar/adc.hpp"
#include "xbar/mapping.hpp"

namespace cnash::chip {

/// Element geometries of the two logical arrays the evaluator programs for
/// `game`: the same shift-to-non-negative / value-scale / cell-coding
/// pipeline, without sampling a single device. Throws std::invalid_argument
/// when the scaled payoffs are not non-negative integers.
struct ArrayGeometry {
  xbar::MappingGeometry m;   // the M array: rows = player-1 actions
  xbar::MappingGeometry nt;  // the Nᵀ array: rows = player-2 actions
};
ArrayGeometry mapped_geometry(const game::BimatrixGame& game,
                              std::uint32_t intervals,
                              const core::TwoPhaseConfig& config);

/// The smallest kAnalogHTree chip whose one tile holds either whole array:
/// no aggregation stage, no aggregation noise, no extra RNG draws.
ChipConfig single_tile_chip(const ArrayGeometry& geometry);

class TiledTwoPhaseEvaluator final : public core::ObjectiveEvaluator,
                                     public core::IncrementalEvaluator {
 public:
  /// Programs both tile grids from the game. `intervals` is the strategy
  /// quantization I; `config` carries the array / WTA / ADC / value-coding
  /// knobs, `chip` the tile dimensions and aggregation model; `rng` drives
  /// the one-time device sampling and the per-read noise afterwards.
  ///
  /// `fault` (optional) is consumed during construction only: tile-failure
  /// rolls use scope base 0 for the M grid and kNtFaultScope for the Nᵀ grid.
  /// When the program-time read-back flags any tile on either grid the
  /// constructor throws ChipFault (the "resilient" backend's retry trigger).
  /// A null/disabled plan changes nothing — no extra RNG draws.
  TiledTwoPhaseEvaluator(game::BimatrixGame game, std::uint32_t intervals,
                         const core::TwoPhaseConfig& config,
                         const ChipConfig& chip, util::Rng rng,
                         const util::FaultPlan* fault = nullptr);

  /// Fault-roll index base of the Nᵀ grid's tiles (M grid starts at 0).
  static constexpr std::uint64_t kNtFaultScope = std::uint64_t{1} << 32;

  double evaluate(const game::QuantizedProfile& profile) override;
  const game::BimatrixGame& game() const override { return game_; }
  core::IncrementalEvaluator* incremental() override {
    return (config_.incremental && chip_.readout != ChipReadout::kPerTileAdc)
               ? this
               : nullptr;
  }

  // IncrementalEvaluator protocol: O(m+n) per tick move, same noise/ADC
  // semantics and RNG draw sequence per scoring as evaluate().
  void reset(const game::QuantizedProfile& profile) override;
  double propose(const core::TickMove* moves, std::size_t count) override;
  void commit() override;

  /// Full re-reads performed by the incremental path since reset().
  std::size_t refresh_count() const { return refresh_count_; }

  /// Phase observables of the last evaluate()/propose(), in payoff units.
  struct PhaseReadout {
    double max_mq;
    double max_ntp;
    double vmv_m;
    double vmv_n;
  };
  const PhaseReadout& last_readout() const { return last_; }

  std::uint32_t intervals() const { return intervals_; }
  const ChipConfig& chip_config() const { return chip_; }
  const TiledCrossbar& chip_m() const { return *chip_m_; }
  const TiledCrossbar& chip_nt() const { return *chip_nt_; }
  const wta::WtaTree& wta_rows() const { return *wta_rows_; }
  const wta::WtaTree& wta_cols() const { return *wta_cols_; }
  const xbar::Adc& adc() const { return *adc_m_; }

  /// Committed per-tile Phase-1 partials (grid_cols × n) / Phase-2 partial
  /// grid (grid_rows × grid_cols) of the M array — introspection for tests
  /// and per-tile energy accounting. Valid after reset(); a commit() may
  /// move the buffers, so take a fresh view after each one.
  std::span<const double> committed_mv_partials_m() const {
    return mv_partials(committed_.m);
  }
  std::span<const double> committed_vmv_partials_m() const {
    return vmv_partials(committed_.m);
  }

 private:
  /// Per-array analog + digital observables. The partial buffers exist only
  /// where the grid aggregates more than one tile (mv_partial: more than one
  /// tile column; vmv_partial: more than one tile); otherwise the one tile's
  /// partial IS the total. Proposals work on the totals (the digitisation
  /// input); commits replay the moves into the committed partials.
  struct ArrayState {
    std::vector<double> mv_partial;   // grid_cols × n, or empty
    std::vector<double> mv_total;     // n aggregated line currents
    std::vector<double> vmv_partial;  // grid_rows × grid_cols, or empty
    double vmv_total = 0.0;
    std::vector<std::int64_t> mv_units;  // n (kIdealDigital)
    std::int64_t vmv_units = 0;
  };
  struct State {
    ArrayState m;   // the M array: rows = player-1 actions
    ArrayState nt;  // the Nᵀ array: rows = player-2 actions
  };

  static std::span<const double> mv_partials(const ArrayState& a) {
    return a.mv_partial.empty() ? std::span<const double>(a.mv_total)
                                : std::span<const double>(a.mv_partial);
  }
  static std::span<const double> vmv_partials(const ArrayState& a) {
    return a.vmv_partial.empty() ? std::span<const double>(&a.vmv_total, 1)
                                 : std::span<const double>(a.vmv_partial);
  }

  void size_state(State& st) const;
  /// Full tile-grid read of one profile into `st` (partials + totals).
  void full_read(State& st, const std::vector<std::uint32_t>& p_counts,
                 const std::vector<std::uint32_t>& q_counts) const;
  /// Tick moves applied in order to the scratch counts (p_scratch_,
  /// q_scratch_) and to the totals of `st`, or, with `partials`, to its
  /// per-tile partial buffers (commit replay).
  void apply_moves(State& st, const core::TickMove* moves, std::size_t count,
                   bool partials);
  /// Aggregation + WTA + noise + ADC on `st`; updates last_ and returns f.
  double digitize(const State& st) {
    switch (chip_.readout) {
      case ChipReadout::kAnalogHTree:
        return digitize_analog(st);
      case ChipReadout::kPerTileAdc:
        return digitize_per_tile_adc(st);
      case ChipReadout::kIdealDigital:
        break;
    }
    return digitize_digital(st);
  }
  double digitize_analog(const State& st);
  double digitize_per_tile_adc(const State& st);
  double digitize_digital(const State& st);

  game::BimatrixGame game_;
  std::uint32_t intervals_;
  core::TwoPhaseConfig config_;
  ChipConfig chip_;
  util::Rng rng_;
  double value_scale_;
  std::unique_ptr<TiledCrossbar> chip_m_;
  std::unique_ptr<TiledCrossbar> chip_nt_;
  // TiledCrossbar::sole_tile() of each grid: on a 1×1 chip the analog delta
  // reads go straight to the one array.
  const xbar::ProgrammedCrossbar* sole_m_ = nullptr;
  const xbar::ProgrammedCrossbar* sole_nt_ = nullptr;
  std::unique_ptr<wta::WtaTree> wta_rows_;
  std::unique_ptr<wta::WtaTree> wta_cols_;
  std::unique_ptr<xbar::Adc> adc_m_;
  std::unique_ptr<xbar::Adc> adc_nt_;
  PhaseReadout last_{};

  // H-tree aggregation noise (per aggregated output per read): sigma already
  // scaled by sqrt(stage depth); 0 when the grid needs no aggregation.
  double agg_sigma_mv_m_ = 0.0, agg_sigma_mv_nt_ = 0.0;
  double agg_sigma_vmv_m_ = 0.0, agg_sigma_vmv_nt_ = 0.0;

  // Incremental state (see class comment).
  std::vector<std::uint32_t> p_counts_, q_counts_;    // committed
  std::vector<std::uint32_t> p_scratch_, q_scratch_;  // proposal
  State committed_, scratch_;
  State eval_state_;  // evaluate()'s workspace, independent of proposals
  std::vector<core::TickMove> pending_;  // outstanding moves (has_partials_)
  std::vector<double> wta_scratch_, agg_scratch_;
  bool primed_ = false;
  bool proposal_outstanding_ = false;
  bool has_partials_ = false;  // more than one tile on either grid
  std::size_t commits_since_refresh_ = 0;
  std::size_t refresh_count_ = 0;
};

/// The "hardware-sa" evaluator: `game` programmed onto
/// single_tile_chip(mapped_geometry(game, intervals, config)) from `rng`,
/// without tile faults.
TiledTwoPhaseEvaluator single_tile_evaluator(
    const game::BimatrixGame& game, std::uint32_t intervals,
    const core::TwoPhaseConfig& config, util::Rng rng);

}  // namespace cnash::chip
