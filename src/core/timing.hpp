#pragma once
// Architecture-level latency / time-to-solution models (Fig. 10).
//
// C-Nash: one SA iteration = Phase-1 analog path (crossbar settle + WTA tree
// + ADC) and Phase-2 analog path (crossbar settle + ADC), pipelined behind the
// digital SA controller cycle. The paper derives times from the operational
// frequency of the FeFET crossbar arrays of [29] scaled to 1-bit/1-bit
// precision; calibrated here to a 1 MHz controller cycle, which reproduces the
// paper's ~10 ms-scale runs for 10k-iteration problems.
//
// D-Wave proxy: a job = programming overhead + num_reads × per-sample time.
// Time-to-solution for all solvers: expected wall clock until the first
// successful run, i.e. job_time / success_rate.

#include <cstddef>

#include "xbar/mapping.hpp"
#include "xbar/parasitics.hpp"

namespace cnash::core {

struct CNashTimingParams {
  double controller_period_s = 1e-6;  // digital SA logic cycle (1 MHz)
  double adc_time_s = 10e-9;          // per conversion
  double wta_cell_latency_s = 0.08e-9;
  /// Per-stage latency of the H-tree adder merging tile outputs (multi-tile
  /// chip model).
  double htree_adder_latency_s = 0.15e-9;
  xbar::WireParams wire;
};

/// Shape of a tile grid for the tiled latency path: fixed physical tile
/// dimensions (line lengths bound the per-tile settle) and the grid size
/// (bounds the H-tree aggregation depth).
struct TileGridTiming {
  std::size_t tile_rows;   // physical word lines per tile
  std::size_t tile_cols;   // physical bit/data lines per tile
  std::size_t grid_rows;
  std::size_t grid_cols;
  std::size_t wta_inputs;  // aggregated row outputs feeding the WTA tree
  std::size_t num_tiles() const { return grid_rows * grid_cols; }
};

class CNashTimingModel {
 public:
  explicit CNashTimingModel(CNashTimingParams params = {});

  const CNashTimingParams& params() const { return params_; }

  /// Analog path latency of one two-phase evaluation over the given array
  /// geometry (both phases, ADCs included).
  double analog_path_s(const xbar::MappingGeometry& geom) const;

  /// Full iteration latency: analog path bounded below by the controller.
  double iteration_s(const xbar::MappingGeometry& geom) const;

  /// Wall clock of one SA run.
  double run_time_s(const xbar::MappingGeometry& geom,
                    std::size_t iterations) const;

  /// Tiled-chip analog path: tiles settle concurrently (short fixed-length
  /// lines), then the H-tree adder stage merges grid_cols partials per row
  /// (Phase 1) / the whole grid (Phase 2) before WTA + ADC. For large games
  /// this beats the single-array path, whose line settle grows with the full
  /// array dimensions.
  double tiled_analog_path_s(const TileGridTiming& grid) const;
  double tiled_iteration_s(const TileGridTiming& grid) const;
  double tiled_run_time_s(const TileGridTiming& grid,
                          std::size_t iterations) const;

  /// Expected time until the first successful run.
  double time_to_solution_s(const xbar::MappingGeometry& geom,
                            std::size_t iterations, double success_rate) const;

 private:
  CNashTimingParams params_;
};

struct DWaveTimingParams {
  double programming_s;
  double per_sample_s;
  std::size_t reads_per_job;
};

/// Calibrated to the published per-generation sampling pipelines.
DWaveTimingParams dwave_2000q6_timing();
DWaveTimingParams dwave_advantage41_timing();

class DWaveTimingModel {
 public:
  explicit DWaveTimingModel(DWaveTimingParams params);

  double job_time_s() const;
  double time_to_solution_s(double success_rate) const;

  const DWaveTimingParams& params() const { return params_; }

 private:
  DWaveTimingParams params_;
};

}  // namespace cnash::core
