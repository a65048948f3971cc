#pragma once
// Configuration of the multi-tile chip model: a large logical bi-crossbar is
// sharded across a grid of fixed-capacity physical crossbar tiles, with the
// per-tile outputs merged by an H-tree adder stage before the WTA / ADC
// periphery. This is how real CIM macros scale past a single array's
// word/bit-line budget: many small arrays (short lines, bounded parasitics,
// bounded programming time) plus a digital/analog aggregation tree.

#include <cstddef>

namespace cnash::chip {

/// How tile outputs are merged and digitised.
enum class ChipReadout {
  /// Analog H-tree current summation, then the shared per-array ADC — the
  /// default, and on a 1×1 grid the paper's single-array datapath (the
  /// "hardware-sa" backend runs exactly that grid).
  kAnalogHTree,
  /// Every tile output is digitised by its own ADC and the codes are summed
  /// digitally in the H-tree. Robust to aggregation-wire noise but pays one
  /// quantisation per tile; forces full (non-incremental) evaluation because
  /// per-tile quantisation breaks delta linearity.
  kPerTileAdc,
  /// Behavioural validation mode: noiseless integer-unit digital readout
  /// (exact conducting-cell counts aggregated in 64-bit integers, WTA/ADC
  /// bypassed). With integer payoffs and a power-of-two interval count the
  /// objective is bit-identical to the exact software evaluator.
  kIdealDigital,
};

struct ChipConfig {
  /// Physical word lines per tile. A tile must hold at least one element
  /// block row, i.e. tile_rows >= I.
  std::size_t tile_rows = 64;
  /// Physical bit/data lines per tile. A tile must hold at least one element
  /// block column, i.e. tile_cols >= I * cells_per_element.
  std::size_t tile_cols = 1024;
  ChipReadout readout = ChipReadout::kAnalogHTree;
  /// Input-referred Gaussian noise of one H-tree aggregation, relative to the
  /// shared ADC full scale, applied once per aggregated output per read and
  /// scaled by sqrt(tree depth). 0 = ideal adders and no RNG draws; a 1×1
  /// grid has no tree and never draws.
  double aggregation_noise_rel = 0.0;
};

}  // namespace cnash::chip
