#pragma once
// core — SolveReport ↔ JSON. One serialisation of the normalised solve result,
// shared by the serve/ gateway (wire responses + cached replay), the
// `solve_file --json` CLI path and the serving benches, so a report written by
// any of them parses back bit-identically (doubles are rendered with
// round-trip precision; NaN fields — regret of invalid samples, the
// best objective of an all-invalid report — map to JSON null and back).
//
// Schema (stable; bump "gamekey"/protocol versions in serve/ if it changes):
//   {
//     "backend": "hardware-sa", "game": "battle of the sexes",
//     "nash_count": 3, "valid_count": 8, "best_objective": 0.0,
//     "modeled_time_s": 1.2e-05, "wall_clock_s": 0.004,
//     "degraded": false, "units_total": 8, "units_completed": 8,
//     "fallback_count": 0,
//     "re_swap_proposals": 150, "re_swap_accepts": 109,     // when nonzero
//     "samples": [
//       {"p": [..], "q": [..], "objective": 0.0, "valid": true,
//        "is_nash": true, "regret": 0.0,
//        "fallback": true,                                  // when set
//        "swap_proposals": 75, "swap_accepts": 49,          // when nonzero
//        "profile": {"intervals": 12, "p": [..], "q": [..]}}   // SA only
//     ]
//   }
// Numbers follow util::Json's number contract (json.hpp).

#include <string>

#include "core/backend.hpp"
#include "util/json.hpp"

namespace cnash::core {

/// Appends the report's compact JSON (the schema above, in that field order)
/// to `out` without building a document tree — the one report writer: wire
/// responses, store values and `solve_file --json` all come from it.
void append_report_json(std::string& out, const SolveReport& report);

/// The writer's bytes parsed into a document, for callers that want to
/// inspect or pretty-print a report (goldens, tests, the benchmark).
util::Json report_to_json(const SolveReport& report);

/// Inverse of report_to_json. Throws util::JsonError on schema violations
/// (missing fields, wrong types, counts that are not non-negative integers in
/// range, profile tick vectors that do not sum to the declared interval
/// count).
SolveReport report_from_json(const util::Json& json);

}  // namespace cnash::core
