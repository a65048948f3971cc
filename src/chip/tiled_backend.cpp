#include "chip/tiled_backend.hpp"

#include <utility>

#include "core/timing.hpp"

namespace cnash::chip {

namespace {

class TiledSaBackend final : public core::SolverBackend {
 public:
  const std::string& name() const override { return name_; }

  std::string describe() const override {
    return "two-phase SA sharded across a grid of fixed-capacity crossbar "
           "tiles with H-tree aggregation (runs, seed, intervals, sa, "
           "hardware, chip, report_best)";
  }

  bool needs_iterations() const override { return true; }

  std::unique_ptr<core::PreparedJob> prepare(
      const core::SolveRequest& request) const override {
    auto factory = std::make_shared<core::HardwareEvaluatorFactory>(
        request.game, request.intervals, request.hardware, request.chip,
        util::Rng(request.seed), request.fault);
    // The tile-grid shape for the latency model is pure geometry.
    const TilePartition part(factory->geometry().m, request.chip.tile_rows,
                             request.chip.tile_cols);
    core::TileGridTiming grid;
    grid.tile_rows = request.chip.tile_rows;
    grid.tile_cols = request.chip.tile_cols;
    grid.grid_rows = part.grid_rows();
    grid.grid_cols = part.grid_cols();
    grid.wta_inputs = request.game.num_actions1();
    const double modeled =
        core::CNashTimingModel().tiled_run_time_s(grid,
                                                  request.sa.iterations) *
        static_cast<double>(request.runs);

    auto job = std::make_unique<core::SaPreparedJob>(
        std::move(factory), request.intervals, request.sa, request.report_best,
        request.seed, request.runs, request.nash_eps);
    job->backend_name = name_;
    job->modeled_time_s = modeled;
    job->max_parallelism = request.max_parallelism;
    return job;
  }

 private:
  std::string name_ = "hardware-sa-tiled";
};

}  // namespace

std::unique_ptr<core::SolverBackend> make_tiled_backend() {
  return std::make_unique<TiledSaBackend>();
}

}  // namespace cnash::chip
