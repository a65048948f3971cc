#pragma once
// serve — content-addressed solution cache. Maps a GameKey (canonical game +
// solve parameters, see canonical.hpp) to the canonical report produced the
// first time that solve ran, held as the bytes core::append_report_json
// wrote for it — exactly the tier-2 store value. Replay is deterministic by
// construction: the stored report is returned as-is — including the modeled
// architecture timing and the original measured wall clock — so a cache hit
// renders byte-for-byte the same response as the solve that populated it.
// The gateway answers hits from these bytes without decoding them
// (render_solve_ok_spliced): it splices the response envelope and the
// caller's name around them and, for a caller in another action order, moves
// the strategy arrays' number tokens.
//
// Eviction is least-recently-used under a byte budget. An entry is charged
// report_footprint() of the report its bytes encode (samples × (p + q +
// quantized profile) + the key blob), whether it came from a solve or from
// the store, so the charge does not depend on the entry's representation.
// Entries larger than the whole budget are never admitted. All counters are
// exposed for the `stats` wire method and the serving bench.
//
// Not thread-safe by itself: the gateway guards it (together with admission
// and the coalescing registry) with one "gate" mutex shared by its worker
// loops. Entries are shared_ptr<const ...> so a hit can be rendered after
// the gate is released — eviction never invalidates a reader. persist() and
// fetch_stored() are the exception: they touch only the store, which has its
// own mutex, so the gateway runs them with the gate released.
//
// Tier 2 (optional, attach_store): a persistent store::SolutionStore under
// the RAM tier. insert() writes the canonical report bytes through to disk;
// a RAM miss consults the store and a disk hit is promoted back into the LRU
// as those same bytes, without decoding them. RAM eviction does NOT touch
// the store — evicted entries live on on disk, which is the point of the
// tier. The caller decides what is persistable: the gateway never inserts
// degraded or fallback reports, so the never-cache rule extends to
// never-persist for free.

#include <cstddef>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/backend.hpp"
#include "serve/canonical.hpp"

namespace cnash::obs {
class Histogram;
}
namespace cnash::store {
class SolutionStore;
}

namespace cnash::serve {

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  /// Reports too large for the whole budget, dropped at insert().
  std::size_t oversize_rejects = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t byte_budget = 0;
};

/// Approximate resident size of a report (heap payload + bookkeeping).
std::size_t report_footprint(const core::SolveReport& report);

/// report_footprint() of the report that `report_json` (bytes written by
/// core::append_report_json) decodes to, counted off the bytes without
/// decoding them. nullopt when the bytes are not a report in that layout.
std::optional<std::size_t> report_json_footprint(std::string_view report_json);

/// A canonical report as core::append_report_json rendered it.
using ReportBytes = std::shared_ptr<const std::string>;

class SolutionCache {
 public:
  explicit SolutionCache(std::size_t byte_budget);

  /// Attach the persistent tier-2 store (non-owning; must outlive the
  /// cache). From then on insert() writes through and lookups fall back to
  /// disk on a RAM miss. The optional histograms time every store get / put
  /// the cache makes, in seconds.
  void attach_store(store::SolutionStore* store,
                    obs::Histogram* get_seconds = nullptr,
                    obs::Histogram* put_seconds = nullptr) {
    store_ = store;
    store_get_seconds_ = get_seconds;
    store_put_seconds_ = put_seconds;
  }

  /// RAM hit: bumps the entry to most-recently-used and returns its bytes
  /// (shared ownership — they stay valid across later inserts and
  /// evictions). RAM miss with a tier-2 store attached: the store is
  /// consulted (full-key compare) and a disk hit is promoted into the LRU
  /// as-is. Miss everywhere: nullptr. CacheStats counts the RAM tier only
  /// (misses includes disk hits — they did miss RAM); the store keeps its
  /// own counters, so tier-1 vs tier-2 hit rates stay distinguishable.
  ReportBytes lookup_bytes(const GameKey& key);

  /// lookup_bytes() decoded into a report, for callers that want the struct
  /// rather than the wire bytes. Same counters, same promotion.
  std::shared_ptr<const core::SolveReport> lookup(const GameKey& key);

  // lookup_bytes() in parts, for a caller that reads the store without
  // holding the lock that guards the cache: lookup_ram(), then on a miss
  // fetch_stored() unlocked, then insert_bytes() (a disk hit) or peek() (to
  // re-check RAM) locked again.

  /// The RAM tier of lookup_bytes(): bumps and returns a hit, counts the hit
  /// or the miss. Never reads the store.
  ReportBytes lookup_ram(const GameKey& key);
  /// A RAM-resident entry, without counting or bumping it.
  ReportBytes peek(const GameKey& key);

  /// A store value and the byte charge of the report it encodes.
  struct Stored {
    ReportBytes report_json;
    std::size_t footprint = 0;
  };
  /// The tier-2 half of lookup_bytes(): reads the store and charges the
  /// value, touching no RAM-tier state — safe outside the cache's lock.
  /// nullopt without a store, on a store miss, or for bytes that are not a
  /// report (a writer bug, served as a miss).
  std::optional<Stored> fetch_stored(const GameKey& key) const;
  bool has_store() const { return store_ != nullptr; }

  /// Insert (or refresh) the canonical report for `key`: render it once,
  /// persist() the bytes, then insert_bytes() them. The store write happens
  /// even when the report is too large for the RAM budget (the disk budget
  /// is the store's own affair).
  void insert(const GameKey& key,
              std::shared_ptr<const core::SolveReport> report);

  /// The tier-2 half of insert(): puts `report_json` into the store (no-op
  /// without one). Touches no RAM-tier state, so the gateway calls it
  /// outside its gate. Store failures (store::StoreError) propagate.
  void persist(const GameKey& key, std::string_view report_json) const;

  /// The RAM half of insert(): admits `report_json`, charged `footprint`
  /// (report_footprint() of the report it encodes) plus the key, then evicts
  /// from the LRU tail until the byte budget holds.
  void insert_bytes(const GameKey& key, ReportBytes report_json,
                    std::size_t footprint);

  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    GameKey key;
    ReportBytes report_json;
    std::size_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  LruList::iterator find(const GameKey& key);
  void erase(LruList::iterator it);

  store::SolutionStore* store_ = nullptr;  // tier 2, optional
  obs::Histogram* store_get_seconds_ = nullptr;
  obs::Histogram* store_put_seconds_ = nullptr;
  LruList lru_;  // front = most recently used
  /// digest → entries with that digest (collisions resolved by blob compare).
  std::unordered_map<std::uint64_t, std::vector<LruList::iterator>> index_;
  CacheStats stats_;
};

}  // namespace cnash::serve
