#pragma once
// The "hardware-sa-tiled" solver backend: two-phase SA on the multi-tile
// chip model (chip/tiled_two_phase) with request-chosen tile dimensions.
// Shares the SaPreparedJob unit contract with "hardware-sa" — evaluator
// instance key 2r, SA stream key 2r+1 — and the evaluator, so a request whose
// game fits a single tile (and draws no tile faults) reproduces the
// "hardware-sa" samples; only modeled_time_s differs (tiled latency model).

#include <memory>

#include "core/backend.hpp"
#include "core/engine.hpp"

namespace cnash::chip {

/// The tiled backend's per-run instances: core::HardwareEvaluatorFactory on a
/// chosen tile grid and fault plan.
using TiledEvaluatorFactory = core::HardwareEvaluatorFactory;

/// The registry entry ("hardware-sa-tiled"); registered by
/// core::SolverRegistry::global().
std::unique_ptr<core::SolverBackend> make_tiled_backend();

}  // namespace cnash::chip
