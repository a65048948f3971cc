#pragma once
// The benchmark's workloads and the layer probes that attribute their
// time. Every input is generated here from the run seed; the program only
// receives the generated requests.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/backend.hpp"

namespace repobench {

/// One job of the solve-batch workload.
struct BatchJob {
  std::string label;   // unique, e.g. "paper1/dwave-2000q6"
  std::string family;  // attribution key: the backend, or "exact-sa-re"
  int paper_index = -1;  // index into paper_benchmarks(), or -1
  cnash::core::SolveRequest request;
};

/// The seeded solve-batch job list: the paper's Table 1 / Fig. 10 set, the
/// replica-exchange and covariant classes, one multi-tile and one
/// lemke-howson job.
std::vector<BatchJob> make_solve_batch(std::uint64_t seed);

/// Compact JSON wire body (`{"method":"solve",...}`) for a request, using
/// only fields the gateway protocol carries. `id` is appended last.
std::string wire_body(const cnash::core::SolveRequest& request,
                      std::uint64_t id);

/// Inputs the layer probes replay: request bodies, the responses recorded
/// for them, and (serve-mix only) the gateway's store directory.
struct ProbeInputs {
  std::vector<std::string> bodies;
  std::vector<std::string> responses;
  std::string store_dir;
};

/// solve-batch: one SolverService (pool = nproc) per round, one submitting
/// thread, rounds repeated for opts.seconds.
PassResult run_solve_batch(const Options& opts, Tracer tracer, Checks& checks,
                           ProbeInputs* probe_inputs);

/// serve-mix: an in-process gateway with a tier-2 store, driven closed-loop
/// by one client thread over 4 connections.
PassResult run_serve_mix(const Options& opts, Tracer tracer, Checks& checks,
                         ProbeInputs* probe_inputs);

/// Per-layer probes: timed calls from the benchmark into each layer's
/// public functions on the workload's inputs.
Metrics run_layer_probes(const Options& opts, const ProbeInputs& inputs,
                         Tracer tracer, Checks& checks);

}  // namespace repobench
