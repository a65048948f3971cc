#include "serve/cache.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <utility>

#include "core/report_json.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"
#include "util/json.hpp"

namespace cnash::serve {

namespace {

/// A cursor over core::append_report_json output: just enough JSON to walk a
/// report's structure and count array elements, without a document tree.
/// Every walk method returns false on bytes outside that layout. It reads
/// every store hit, so strings and number arrays — most of a report — are
/// found with memchr and checked in branch-free passes, not byte by byte.
class ReportScanner {
 public:
  explicit ReportScanner(std::string_view text) : s_(text) {}

  bool at_end() const { return i_ == s_.size(); }

  /// The string token at the cursor, quotes included; empty if malformed.
  std::string_view string() {
    const char* const begin = s_.data() + i_;
    const char* const end = s_.data() + s_.size();
    if (begin == end || *begin != '"') return {};
    for (const char* p = begin + 1; p < end;) {
      const char* quote =
          static_cast<const char*>(std::memchr(p, '"', end - p));
      if (!quote) return {};
      // The quote closes the string unless an odd run of '\\' escapes it.
      const char* run = quote;
      while (run > begin + 1 && run[-1] == '\\') --run;
      if ((quote - run) % 2 == 0) {
        i_ = static_cast<std::size_t>(quote + 1 - s_.data());
        return std::string_view(begin,
                                static_cast<std::size_t>(quote + 1 - begin));
      }
      p = quote + 1;
    }
    return {};
  }

  /// Walks an array, calling `element()` with the cursor on each element.
  template <class F>
  bool array(F&& element) {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!element()) return false;
    } while (eat(','));
    return eat(']');
  }

  /// Moves past an array of numbers (or true / false / null) and returns
  /// the text between its brackets — elements joined by ','; nullopt if the
  /// array holds anything else or an empty element.
  std::optional<std::string_view> scalars() {
    if (!eat('[')) return std::nullopt;
    const char* const begin = s_.data() + i_;
    const auto* close =
        static_cast<const char*>(std::memchr(begin, ']', s_.size() - i_));
    if (!close) return std::nullopt;
    const std::string_view text(begin, static_cast<std::size_t>(close - begin));
    bool ok = true;
    char prev = ',';  // so a leading comma reads as an empty element
    for (const char c : text) {
      ok &= is_scalar_char(c) || c == ',';
      ok &= !(c == ',' && prev == ',');
      prev = c;
    }
    if (!text.empty()) ok &= prev != ',';
    if (!ok) return std::nullopt;
    i_ = static_cast<std::size_t>(close + 1 - s_.data());
    return text;
  }

  /// Walks an object, calling `member(key)` with the cursor on each value;
  /// `key` is the raw key token, quotes included.
  template <class F>
  bool object(F&& member) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      const std::string_view key = string();
      if (key.empty() || !eat(':') || !member(key)) return false;
    } while (eat(','));
    return eat('}');
  }

  /// Skips one value of any type.
  bool skip(int depth = 0) {
    if (depth > kMaxDepth || at_end()) return false;
    switch (s_[i_]) {
      case '"':
        return !string().empty();
      case '[':
        return array([&] { return skip(depth + 1); });
      case '{':
        return object([&](std::string_view) { return skip(depth + 1); });
      default: {  // number, true, false, null
        const char* const begin = s_.data() + i_;
        const char* const end = s_.data() + s_.size();
        const char* p = begin;
        while (p < end && is_scalar_char(*p)) ++p;
        i_ += static_cast<std::size_t>(p - begin);
        return p > begin;
      }
    }
  }

  /// Skips an array of numbers, adding `unit` to `bytes` per element.
  bool count(std::size_t& bytes, std::size_t unit) {
    const std::optional<std::string_view> text = scalars();
    if (!text) return false;
    if (!text->empty())
      bytes += unit * static_cast<std::size_t>(
                          1 + std::count(text->begin(), text->end(), ','));
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  static bool is_scalar_char(char c) {
    return kScalarChars[static_cast<unsigned char>(c)];
  }
  static constexpr std::array<bool, 256> kScalarChars = [] {
    std::array<bool, 256> table{};
    for (int c = '0'; c <= '9'; ++c) table[c] = true;
    for (int c = 'a'; c <= 'z'; ++c) table[c] = true;
    for (int c = 'A'; c <= 'Z'; ++c) table[c] = true;
    for (const char c : {'-', '+', '.'})
      table[static_cast<unsigned char>(c)] = true;
    return table;
  }();

  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

/// Length of the decoded string a JSON string token holds.
std::optional<std::size_t> decoded_size(std::string_view token) {
  if (token.size() < 2) return std::nullopt;
  if (token.find('\\') == std::string_view::npos) return token.size() - 2;
  try {
    return util::Json::parse(std::string(token)).as_string().size();
  } catch (const util::JsonError&) {
    return std::nullopt;
  }
}

/// Times its scope into `hist`; inert when `hist` is null.
class StoreTimer {
 public:
  explicit StoreTimer(obs::Histogram* hist) : hist_(hist) {
    if (hist_) begin_ = std::chrono::steady_clock::now();
  }
  StoreTimer(const StoreTimer&) = delete;
  StoreTimer& operator=(const StoreTimer&) = delete;
  ~StoreTimer() {
    if (hist_)
      hist_->record(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - begin_)
                        .count());
  }

 private:
  obs::Histogram* hist_;
  std::chrono::steady_clock::time_point begin_{};
};

}  // namespace

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

std::optional<std::size_t> report_json_footprint(std::string_view report_json) {
  // Mirrors report_footprint() over what report_from_json would build.
  ReportScanner in(report_json);
  std::size_t bytes = sizeof(core::SolveReport);
  auto sample = [&] {
    bytes += sizeof(core::SolveSample);
    return in.object([&](std::string_view key) {
      if (key == "\"p\"" || key == "\"q\"")
        return in.count(bytes, sizeof(double));
      if (key != "\"profile\"") return in.skip();
      return in.object([&](std::string_view profile_key) {
        if (profile_key == "\"p\"" || profile_key == "\"q\"")
          return in.count(bytes, sizeof(std::uint32_t));
        return in.skip();
      });
    });
  };
  int required = 0;  // backend, game and samples, as report_from_json wants
  const bool ok = in.object([&](std::string_view key) {
    if (key == "\"backend\"" || key == "\"game\"") {
      ++required;
      const std::optional<std::size_t> size = decoded_size(in.string());
      if (size) bytes += *size;
      return size.has_value();
    }
    if (key == "\"samples\"") {
      ++required;
      return in.array(sample);
    }
    return in.skip();
  });
  if (!ok || !in.at_end() || required != 3) return std::nullopt;
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

ReportBytes SolutionCache::lookup_bytes(const GameKey& key) {
  if (ReportBytes hit = lookup_ram(key)) return hit;
  // Tier 2: the persistent store holds the same canonical report bytes. A
  // hit is promoted into the RAM tier as-is, so the next lookup is a RAM hit.
  std::optional<Stored> stored = fetch_stored(key);
  if (!stored) return nullptr;
  insert_bytes(key, stored->report_json, stored->footprint);
  return std::move(stored->report_json);
}

ReportBytes SolutionCache::lookup_ram(const GameKey& key) {
  const LruList::iterator it = find(key);
  if (it == lru_.end()) {
    stats_.misses++;
    return nullptr;
  }
  stats_.hits++;
  lru_.splice(lru_.begin(), lru_, it);  // bump to most-recently-used
  return it->report_json;
}

ReportBytes SolutionCache::peek(const GameKey& key) {
  const LruList::iterator it = find(key);
  return it == lru_.end() ? nullptr : it->report_json;
}

std::optional<SolutionCache::Stored> SolutionCache::fetch_stored(
    const GameKey& key) const {
  if (!store_) return std::nullopt;
  std::optional<std::string> value;
  {
    StoreTimer timer(store_get_seconds_);
    value = store_->get(key.digest, key.blob);
  }
  if (!value) return std::nullopt;
  // CRC-intact bytes that are not a report mean a writer bug, not a reader
  // problem; serve a miss instead of passing them on.
  const std::optional<std::size_t> footprint = report_json_footprint(*value);
  if (!footprint) return std::nullopt;
  return Stored{std::make_shared<const std::string>(std::move(*value)),
                *footprint};
}

std::shared_ptr<const core::SolveReport> SolutionCache::lookup(
    const GameKey& key) {
  const ReportBytes report_json = lookup_bytes(key);
  if (!report_json) return nullptr;
  try {
    return std::make_shared<const core::SolveReport>(
        core::report_from_json(util::Json::parse(*report_json)));
  } catch (const std::exception&) {
    return nullptr;
  }
}

void SolutionCache::insert(const GameKey& key,
                           std::shared_ptr<const core::SolveReport> report) {
  auto report_json = std::make_shared<std::string>();
  core::append_report_json(*report_json, *report);
  persist(key, *report_json);
  insert_bytes(key, std::move(report_json), report_footprint(*report));
}

void SolutionCache::persist(const GameKey& key,
                            std::string_view report_json) const {
  if (!store_) return;
  StoreTimer timer(store_put_seconds_);
  store_->put(key.digest, key.blob, report_json);
}

void SolutionCache::insert_bytes(const GameKey& key, ReportBytes report_json,
                                 std::size_t footprint) {
  const std::size_t bytes = footprint + key.blob.size() + sizeof(Entry);
  if (bytes > stats_.byte_budget) {
    stats_.oversize_rejects++;
    return;
  }
  const LruList::iterator existing = find(key);
  if (existing != lru_.end()) erase(existing);  // refresh (coalesced double insert)

  lru_.push_front(Entry{key, std::move(report_json), bytes});
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
