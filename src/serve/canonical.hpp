#pragma once
// serve — request canonicalization + content addressing for the solution
// cache. Two requests that describe the same solve (same payoffs up to action
// relabeling, same backend, same solve parameters) should land on the same
// cache entry, so the gateway never re-solves work it has already done:
//
//   1. The game is brought to a *canonical action order* (canonicalize):
//      rows are first ranked by a column-order-invariant signature (the
//      sorted multiset of their (M, N) entries), columns are then sorted
//      lexicographically under that row order, and rows are finally re-sorted
//      lexicographically under the fixed column order. Any row/column
//      relabeling of a game maps to the same canonical form whenever the
//      row signatures are distinct (generic games); ties only reduce the hit
//      rate, never correctness, because lookups compare the full canonical
//      payoff bytes, not just the digest.
//   2. The canonical payoff bytes plus every result-affecting solve parameter
//      (backend key, runs, seed, intervals, SA schedule, hardware and chip
//      knobs — but NOT max_parallelism, which is guaranteed not to change
//      results) are serialised into a binary blob and digested with FNV-1a 64
//      (GameKey). The blob is kept alongside the digest so a digest collision
//      can never serve a wrong report.
//
// The gateway solves the *canonical* request and caches the canonical report;
// map_to_original() permutes a report's strategy vectors (and quantized
// profiles) back into the caller's action order. For an already-canonical
// request the mapping is the identity, so a cached replay is byte-identical
// to the first response.

#include <cstdint>
#include <string>
#include <vector>

#include "core/backend.hpp"

namespace cnash::serve {

/// FNV-1a 64-bit accumulator over a parallel byte blob. The blob is the
/// authoritative key; the digest is its hash-map address.
class KeyBuilder {
 public:
  void bytes(const void* data, std::size_t size);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Bit pattern of the double (distinguishes -0.0 from 0.0 and every NaN
  /// payload — near-identical games must hash differently).
  void f64(double v);
  void str(const std::string& s);  // length-prefixed

  std::uint64_t digest() const { return digest_; }
  std::string take_blob() { return std::move(blob_); }

 private:
  std::uint64_t digest_ = 1469598103934665603ULL;  // FNV offset basis
  std::string blob_;
};

/// Content address of one canonical solve: 64-bit digest + the exact key
/// bytes it was computed from.
struct GameKey {
  std::uint64_t digest = 0;
  std::string blob;

  bool operator==(const GameKey& rhs) const {
    return digest == rhs.digest && blob == rhs.blob;
  }
};

/// Everything needed to rebase a canonical-order report onto the caller's
/// action order — deliberately slim (two permutation vectors + the name), so
/// a waiter on an in-flight solve does not retain the payoff matrices.
struct ReportMapping {
  /// Canonical row i is original row row_perm[i]; likewise for columns.
  std::vector<std::uint32_t> row_perm;
  std::vector<std::uint32_t> col_perm;
  /// The caller's game name, restored on mapped-back reports.
  std::string original_name;

  /// Both permutations are the identity: the canonical report is already in
  /// the caller's action order and differs from the response only in name.
  bool identity_order() const;
};

/// A solve request rebased onto the canonical action order of its game.
struct CanonicalRequest {
  /// The request to actually solve: canonical game, name cleared (names do
  /// not affect results and must not split cache entries).
  core::SolveRequest request;
  ReportMapping mapping;
  GameKey key;
};

/// Canonicalize a request and compute its content address. Takes the request
/// by value: move it in to avoid a payoff-matrix copy (the canonical game
/// replaces the original in place).
CanonicalRequest canonicalize(core::SolveRequest request);

/// Rebase a canonical-order report onto the original action order: permutes
/// every sample's p/q (and quantized profile) and restores the game name.
/// Objectives, validity, ε-Nash verdicts, regrets and timing are invariant
/// under action relabeling and are carried through unchanged.
core::SolveReport map_to_original(const ReportMapping& mapping,
                                  core::SolveReport report);

}  // namespace cnash::serve
