#pragma once
// core "resilient" backend — transparent software fallback for the modeled
// hardware path (ROADMAP item 3). It wraps a primary hardware backend
// (request.resilient_primary: "hardware-sa" or "hardware-sa-tiled") and the
// "exact-sa" ablation backend, preparing BOTH for the same request: the two
// jobs share the SaPreparedJob unit partitioning (one run, or one
// replica-exchange ensemble, per unit), so when a primary unit fails — an
// injected unit fault, or a chip fault detected by the TiledCrossbar
// program-time read-back — that one run is re-run on the exact objective at
// the same unit index and its sample is flagged `fallback`, counted as
// SolveReport::fallback_count.
//
// With the request's FaultPlan disabled and a healthy chip, the primary path
// runs exactly as the wrapped backend would — sample-for-sample bit-identical
// output (only report.backend reads "resilient"). Fallback results are
// deliberately excluded from the gateway's solution cache (serve/server).

#include <memory>

#include "core/backend.hpp"

namespace cnash::core {

/// The registry entry ("resilient"); registered by SolverRegistry::global().
std::unique_ptr<SolverBackend> make_resilient_backend();

}  // namespace cnash::core
