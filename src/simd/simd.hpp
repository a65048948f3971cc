#pragma once
// simd:: — runtime-dispatched vector kernels for the hot per-iteration loops
// (exact MAX-QUBO delta updates, crossbar delta/accumulate reads, QUBO
// annealer field updates) and for bulk device sampling (batched Box-Muller
// normals, subthreshold exp10).
//
// Dispatch model: every kernel has one C++ definition (simd/kernels.inc)
// compiled into three translation units — baseline (scalar/SSE2), AVX2 and
// AVX-512 — that differ only in the -m flags handed to the compiler. All
// kernels are element-wise or use a fixed 8-lane reduction tree, and every TU
// is built with -ffp-contract=off, so the three variants are BIT-IDENTICAL:
// the auto-vectorizer may reorder independent element operations but never
// the dependency chain of any single element, and no variant may fuse a
// mul+add into an fma. The active variant is picked once at startup from
// CPUID, and can be pinned for debugging:
//
//   * environment: CNASH_FORCE_SCALAR=1 selects the baseline variant;
//   * programmatic: force_level() (tests / benches compare variants).
//
// Building with -DCNASH_SIMD=OFF omits the AVX TUs entirely (the scalar
// fallback is the only variant); that configuration must run the same —
// bit-identically — on any x86-64, which the CI -mno-avx2 job checks.

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace cnash::simd {

enum class IsaLevel : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable level name ("scalar", "avx2", "avx512").
const char* level_name(IsaLevel level);

/// Best level this build + CPU supports (env overrides NOT applied).
IsaLevel max_supported_level();

/// The level all kernels currently dispatch to. Resolved once from
/// max_supported_level() and CNASH_FORCE_SCALAR on first use.
IsaLevel active_level();

/// Pin dispatch to `level` (tests/benches). Returns false — leaving the
/// active level unchanged — when the build or CPU cannot run `level`.
bool force_level(IsaLevel level);

// ---- Element-wise kernels (identical bits at every level) -------------------

/// y[i] += x[i]
void accumulate(double* y, const double* x, std::size_t n);

/// y[i] += a[i] - b[i]
void add_diff(double* y, const double* a, const double* b, std::size_t n);

/// y[i] += (a[i] - b[i]) * t — the exact MAX-QUBO row/column delta update.
void add_scaled_diff(double* y, const double* a, const double* b, double t,
                     std::size_t n);

/// y[i] += s * x[i]
void axpy(double* y, double s, const double* x, std::size_t n);

/// y[i] += s * x[i] for i != skip (skip >= n applies to all i) — the QUBO
/// annealer's accepted-flip field update.
void axpy_skip(double* y, double s, const double* x, std::size_t n,
               std::size_t skip);

// ---- Reductions -------------------------------------------------------------

/// Dot product over a FIXED 8-accumulator reduction tree (lane l sums
/// elements with index ≡ l mod 8, lanes folded pairwise, sequential tail) so
/// the result is identical no matter which vector width executes it.
double dot(const double* a, const double* b, std::size_t n);

/// max(x[0..n)) with std::max_element semantics (first maximum wins). n >= 1.
double max_value(const double* x, std::size_t n);

// ---- Bulk device sampling ---------------------------------------------------

/// Fills out[0..n) with standard normals via batched Box-Muller on its own
/// polynomial log/sin/cos (bit-identical at every level — unlike libm).
/// Consumes exactly 2*ceil(n/2) raw 64-bit draws from `rng`, in order; they
/// are taken a chunk at a time through util::Rng::fill, whose loop keeps the
/// generator state in registers rather than calling Rng::operator() and
/// reloading it per draw. out[i] depends only on raw draws 2*floor(i/2) and
/// 2*floor(i/2)+1, so a shorter call yields a prefix of a longer one's
/// values, and Rng::discard can stand in for the draws of an unread tail.
/// NOTE: this is a different (but equally exact) variate stream than repeated
/// util::Rng::normal() calls.
void fill_normals(util::Rng& rng, double* out, std::size_t n);

/// sum[i] += i_off0 * 10^(c * zv[i]) — OFF-cell subthreshold leakage of a
/// batch of cells with V_TH offsets sigma_vth*zv (c folds sigma and slope).
void off_cell_accumulate(double* sum, const double* zv, std::size_t n,
                         double i_off0, double c);

/// Linearised ON/intermediate-level cell currents accumulated into `sum`:
///   vth = sigma_vth * zv[i]
///   rel = clamp(sigma_r_rel * zr[i], ±3*sigma_r_rel)
///   on  = max(0, i_on0 + don_dvth*vth + don_dr*(r_nominal*rel))
///   cur = frac * on;  if (mlc_sigma > 0) cur *= 1 + mlc_sigma*zm[i]
///   sum[i] += max(0, cur)
/// zm may be null when mlc_sigma == 0.
struct OnCellParams {
  double i_on0;
  double don_dvth;
  double don_dr;
  double sigma_vth;
  double sigma_r_rel;
  double r_nominal;
  double frac;
  double mlc_sigma;
};
void on_cell_accumulate(double* sum, const double* zv, const double* zr,
                        const double* zm, std::size_t n,
                        const OnCellParams& p);

}  // namespace cnash::simd
