#include "serve/cache.hpp"

#include <algorithm>
#include <utility>

#include "core/report_json.hpp"
#include "store/store.hpp"
#include "util/json.hpp"

namespace cnash::serve {

std::size_t report_footprint(const core::SolveReport& report) {
  std::size_t bytes = sizeof(core::SolveReport) + report.backend.size() +
                      report.game_name.size();
  for (const core::SolveSample& s : report.samples) {
    bytes += sizeof(core::SolveSample);
    bytes += (s.p.size() + s.q.size()) * sizeof(double);
    if (s.profile)
      bytes += (s.profile->p.counts().size() + s.profile->q.counts().size()) *
               sizeof(std::uint32_t);
  }
  return bytes;
}

SolutionCache::SolutionCache(std::size_t byte_budget) {
  stats_.byte_budget = byte_budget;
}

SolutionCache::LruList::iterator SolutionCache::find(const GameKey& key) {
  const auto bucket = index_.find(key.digest);
  if (bucket == index_.end()) return lru_.end();
  for (const LruList::iterator it : bucket->second)
    if (it->key.blob == key.blob) return it;
  return lru_.end();
}

void SolutionCache::erase(LruList::iterator it) {
  auto bucket = index_.find(it->key.digest);
  auto& entries = bucket->second;
  entries.erase(std::find(entries.begin(), entries.end(), it));
  if (entries.empty()) index_.erase(bucket);
  stats_.bytes -= it->bytes;
  stats_.entries--;
  lru_.erase(it);
}

std::shared_ptr<const core::SolveReport> SolutionCache::lookup(
    const GameKey& key) {
  const LruList::iterator it = find(key);
  if (it != lru_.end()) {
    stats_.hits++;
    lru_.splice(lru_.begin(), lru_, it);  // bump to most-recently-used
    return it->report;
  }
  stats_.misses++;
  if (!store_) return nullptr;

  // Tier 2: the persistent store holds the canonical report JSON. A hit is
  // decoded and promoted into the RAM tier so the next lookup is a RAM hit.
  const auto bytes = store_->get(key.digest, key.blob);
  if (!bytes) return nullptr;
  std::shared_ptr<const core::SolveReport> report;
  try {
    report = std::make_shared<const core::SolveReport>(
        core::report_from_json(util::Json::parse(*bytes)));
  } catch (const std::exception&) {
    // CRC-intact bytes that do not parse back into a report mean a writer
    // bug, not a reader problem; serve a miss instead of an exception.
    return nullptr;
  }
  insert_local(key, report);
  return report;
}

void SolutionCache::insert(const GameKey& key,
                           std::shared_ptr<const core::SolveReport> report) {
  if (store_) {
    std::string value;
    core::append_report_json(value, *report);
    store_->put(key.digest, key.blob, value);
  }
  insert_local(key, std::move(report));
}

void SolutionCache::insert_local(
    const GameKey& key, std::shared_ptr<const core::SolveReport> report) {
  const std::size_t bytes =
      report_footprint(*report) + key.blob.size() + sizeof(Entry);
  if (bytes > stats_.byte_budget) {
    stats_.oversize_rejects++;
    return;
  }
  const LruList::iterator existing = find(key);
  if (existing != lru_.end()) erase(existing);  // refresh (coalesced double insert)

  lru_.push_front(Entry{key, std::move(report), bytes});
  index_[key.digest].push_back(lru_.begin());
  stats_.bytes += bytes;
  stats_.entries++;
  stats_.insertions++;

  while (stats_.bytes > stats_.byte_budget && stats_.entries > 1) {
    erase(std::prev(lru_.end()));
    stats_.evictions++;
  }
}

}  // namespace cnash::serve
