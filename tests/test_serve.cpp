// The Nash-serving gateway (src/serve/). Contracts under test:
//   * canonicalization: permuted-but-identical games (and their solve
//     parameters) share a GameKey, near-identical games never do, and
//     map_to_original() inverts the canonical permutation;
//   * SolutionCache: LRU eviction order under a byte budget, hit/miss/
//     eviction counters, and a cached report bit-identical to a fresh solve
//     with the same seed;
//   * AdmissionController: per-connection cap, global watermark, growing
//     retry_after hints;
//   * end-to-end over loopback TCP: every registered backend round-trips a
//     solve (including hardware-sa-tiled), a repeated identical request is
//     served from the cache (hit counter up, no new SolverService job,
//     byte-identical report), load shedding returns retry_after instead of
//     queueing unbounded work, malformed requests get structured errors, and
//     request_stop() drains gracefully.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/report_json.hpp"
#include "game/games.hpp"
#include "game/parse.hpp"
#include "game/random_games.hpp"
#include "serve/line_client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace cnash::serve {
namespace {

// ---- helpers ----------------------------------------------------------------

core::SolveRequest quick_request(const game::BimatrixGame& g,
                                 const std::string& backend = "exact-sa",
                                 std::size_t runs = 4, std::uint64_t seed = 7) {
  core::SolveRequest req(g);
  req.backend = backend;
  req.runs = runs;
  req.seed = seed;
  req.sa.iterations = 300;
  return req;
}

game::BimatrixGame permute_game(const game::BimatrixGame& g,
                                const std::vector<std::uint32_t>& rows,
                                const std::vector<std::uint32_t>& cols,
                                const std::string& name) {
  la::Matrix m(g.num_actions1(), g.num_actions2());
  la::Matrix n(g.num_actions1(), g.num_actions2());
  for (std::size_t r = 0; r < g.num_actions1(); ++r)
    for (std::size_t c = 0; c < g.num_actions2(); ++c) {
      m(r, c) = g.payoff1()(rows[r], cols[c]);
      n(r, c) = g.payoff2()(rows[r], cols[c]);
    }
  return game::BimatrixGame(std::move(m), std::move(n), name);
}

std::string fingerprint_no_wall_clock(const core::SolveReport& r) {
  // Everything the determinism guarantee covers; reuses the canonical JSON
  // rendering (wall_clock_s zeroed — it is measured, not derived).
  core::SolveReport copy = r;
  copy.wall_clock_s = 0.0;
  return core::report_to_json(copy).dump();
}

/// serve::LineClient plus gtest-flavoured helpers for the loopback tests.
class TestClient {
 public:
  void connect_to(std::uint16_t port) {
    ASSERT_TRUE(client_.connect_to(port)) << std::strerror(errno);
  }
  void send_line(const std::string& line) {
    ASSERT_TRUE(client_.send_line(line)) << std::strerror(errno);
  }
  /// False on orderly EOF.
  bool recv_line(std::string& line) { return client_.recv_line(line); }

  util::Json request(const std::string& line) {
    send_line(line);
    std::string response;
    EXPECT_TRUE(recv_line(response));
    return util::Json::parse(response);
  }

 private:
  LineClient client_;
};

/// Boots a NashServer on an ephemeral loopback port in a background thread
/// and joins it on teardown (graceful drain via request_stop()).
class ServerFixture {
 public:
  explicit ServerFixture(ServeOptions options = {}) : server_(options) {
    server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerFixture() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    server_.request_stop();
    thread_.join();
  }

  NashServer& server() { return server_; }
  std::uint16_t port() const { return server_.port(); }

 private:
  NashServer server_;
  std::thread thread_;
};

std::string solve_line(const game::BimatrixGame& g, int id,
                       const std::string& backend = "exact-sa",
                       std::size_t runs = 4, std::size_t iterations = 300,
                       std::uint64_t seed = 7, const std::string& extra = "") {
  std::string line = "{\"method\":\"solve\",\"id\":" + std::to_string(id);
  line += ",\"game_text\":" +
          util::Json::string(game::serialize_game(g, /*precision=*/12)).dump();
  line += ",\"backend\":\"" + backend + "\"";
  line += ",\"runs\":" + std::to_string(runs);
  line += ",\"iterations\":" + std::to_string(iterations);
  line += ",\"seed\":" + std::to_string(seed);
  line += extra;
  line += "}";
  return line;
}

// ---- canonicalization -------------------------------------------------------

TEST(Canonicalization, PermutedButIdenticalGamesShareAKey) {
  util::Rng rng(42);
  const game::BimatrixGame g = game::random_covariant_game(6, 5, 0.3, rng);
  const CanonicalRequest base = canonicalize(quick_request(g));

  std::vector<std::uint32_t> rows(6), cols(5);
  std::iota(rows.begin(), rows.end(), 0u);
  std::iota(cols.begin(), cols.end(), 0u);
  for (int trial = 0; trial < 8; ++trial) {
    for (std::size_t i = rows.size(); i > 1; --i)
      std::swap(rows[i - 1], rows[rng.uniform_index(i)]);
    for (std::size_t i = cols.size(); i > 1; --i)
      std::swap(cols[i - 1], cols[rng.uniform_index(i)]);
    const game::BimatrixGame shuffled =
        permute_game(g, rows, cols, "another name entirely");
    const CanonicalRequest other = canonicalize(quick_request(shuffled));
    EXPECT_EQ(other.key.digest, base.key.digest) << "trial " << trial;
    EXPECT_EQ(other.key.blob, base.key.blob) << "trial " << trial;
    // Same canonical game, different recorded permutations.
    EXPECT_EQ(other.request.game.payoff1(), base.request.game.payoff1());
    EXPECT_EQ(other.request.game.payoff2(), base.request.game.payoff2());
  }
}

TEST(Canonicalization, NearIdenticalGamesAndParamsHashDifferent) {
  util::Rng rng(43);
  const game::BimatrixGame g = game::random_covariant_game(4, 4, 0.0, rng);
  const CanonicalRequest base = canonicalize(quick_request(g));

  // One payoff nudged by 1 ulp-scale epsilon → different key.
  la::Matrix m = g.payoff1();
  m(2, 3) += 1e-12;
  const game::BimatrixGame nudged(m, g.payoff2(), g.name());
  EXPECT_NE(canonicalize(quick_request(nudged)).key.blob, base.key.blob);

  // Any result-affecting parameter change → different key.
  core::SolveRequest req = quick_request(g);
  req.seed = 8;
  EXPECT_NE(canonicalize(req).key.blob, base.key.blob);
  req = quick_request(g);
  req.backend = "hardware-sa";
  EXPECT_NE(canonicalize(req).key.blob, base.key.blob);
  req = quick_request(g);
  req.runs = 5;
  EXPECT_NE(canonicalize(req).key.blob, base.key.blob);
  req = quick_request(g);
  req.sa.iterations = 301;
  EXPECT_NE(canonicalize(req).key.blob, base.key.blob);
  req = quick_request(g);
  req.chip.tile_rows = 32;
  EXPECT_NE(canonicalize(req).key.blob, base.key.blob);

  // ... but max_parallelism is scheduling-only and must NOT split the key.
  req = quick_request(g);
  req.max_parallelism = 3;
  EXPECT_EQ(canonicalize(req).key.blob, base.key.blob);
  // Neither does the game's display name.
  const game::BimatrixGame renamed(g.payoff1(), g.payoff2(), "other");
  EXPECT_EQ(canonicalize(quick_request(renamed)).key.blob, base.key.blob);
}

TEST(Canonicalization, MapToOriginalInvertsThePermutation) {
  util::Rng rng(44);
  const game::BimatrixGame g = game::random_covariant_game(5, 4, -0.5, rng);
  const CanonicalRequest canonical = canonicalize(quick_request(g));

  // Solve the canonical game, map back, and check the mapping element-wise.
  const core::SolveReport canon_report =
      core::SolverRegistry::global().at("exact-sa").solve(canonical.request);
  const core::SolveReport mapped =
      map_to_original(canonical.mapping, canon_report);
  EXPECT_EQ(mapped.game_name, g.name());
  ASSERT_EQ(mapped.samples.size(), canon_report.samples.size());
  for (std::size_t s = 0; s < mapped.samples.size(); ++s) {
    for (std::size_t i = 0; i < canonical.mapping.row_perm.size(); ++i)
      EXPECT_EQ(mapped.samples[s].p[canonical.mapping.row_perm[i]],
                canon_report.samples[s].p[i]);
    for (std::size_t j = 0; j < canonical.mapping.col_perm.size(); ++j)
      EXPECT_EQ(mapped.samples[s].q[canonical.mapping.col_perm[j]],
                canon_report.samples[s].q[j]);
  }
}

// ---- solution cache ---------------------------------------------------------

GameKey fake_key(char tag) {
  GameKey key;
  key.blob = std::string("key-") + tag;
  key.digest = static_cast<std::uint64_t>(tag);
  return key;
}

std::shared_ptr<const core::SolveReport> small_report(char tag) {
  core::SolveReport report;
  report.backend = "test";
  report.game_name = std::string(1, tag);
  core::SolveSample s;
  s.p = {1.0, 0.0};
  s.q = {0.0, 1.0};
  report.samples = {s};
  return std::make_shared<const core::SolveReport>(std::move(report));
}

TEST(SolutionCache, LruEvictionOrderUnderByteBudget) {
  // Measure the exact accounted size of one entry, then budget for three.
  std::size_t entry_bytes = 0;
  {
    SolutionCache probe(1u << 20);
    probe.insert(fake_key('a'), small_report('a'));
    entry_bytes = probe.stats().bytes;
  }
  SolutionCache cache(3 * entry_bytes + entry_bytes / 2);  // fits 3 entries

  cache.insert(fake_key('a'), small_report('a'));
  cache.insert(fake_key('b'), small_report('b'));
  cache.insert(fake_key('c'), small_report('c'));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch 'a' so 'b' becomes least recently used, then overflow with 'd'.
  ASSERT_NE(cache.lookup(fake_key('a')), nullptr);
  cache.insert(fake_key('d'), small_report('d'));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(fake_key('b')), nullptr) << "LRU entry must go first";
  EXPECT_NE(cache.lookup(fake_key('a')), nullptr);
  EXPECT_NE(cache.lookup(fake_key('c')), nullptr);
  EXPECT_NE(cache.lookup(fake_key('d')), nullptr);
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_LE(cache.stats().bytes, cache.stats().byte_budget);
}

TEST(SolutionCache, OversizeReportsAreNeverAdmitted) {
  SolutionCache cache(64);  // smaller than any real report
  cache.insert(fake_key('a'), small_report('a'));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().oversize_rejects, 1u);
  EXPECT_EQ(cache.lookup(fake_key('a')), nullptr);
}

TEST(SolutionCache, CachedReportIsBitIdenticalToAFreshSolveWithTheSameSeed) {
  const game::BimatrixGame g = game::bird_game();
  const CanonicalRequest canonical =
      canonicalize(quick_request(g, "hardware-sa", 3, 99));

  const core::SolveReport first =
      core::SolverRegistry::global().at("hardware-sa").solve(canonical.request);
  SolutionCache cache(1u << 20);
  cache.insert(canonical.key, std::make_shared<const core::SolveReport>(first));

  const std::shared_ptr<const core::SolveReport> replay =
      cache.lookup(canonical.key);
  ASSERT_NE(replay, nullptr);
  const core::SolveReport fresh =
      core::SolverRegistry::global().at("hardware-sa").solve(canonical.request);
  EXPECT_EQ(fingerprint_no_wall_clock(*replay),
            fingerprint_no_wall_clock(fresh));
  // Replay preserves the *original* measured wall clock and modeled timing.
  EXPECT_EQ(replay->wall_clock_s, first.wall_clock_s);
  EXPECT_EQ(replay->modeled_time_s, first.modeled_time_s);
}

// ---- admission --------------------------------------------------------------

TEST(Admission, CapsAndWatermarkAndRetryHints) {
  AdmissionController admission({/*max_queue_depth=*/2,
                                 /*per_connection_inflight=*/1,
                                 /*retry_after_s=*/0.5});
  using Verdict = AdmissionController::Verdict;
  EXPECT_EQ(admission.admit(0, 0), Verdict::kAdmit);
  EXPECT_EQ(admission.admit(0, 1), Verdict::kShedConnectionCap);
  EXPECT_EQ(admission.admit(2, 0), Verdict::kShedQueueFull);
  EXPECT_EQ(admission.stats().admitted, 1u);
  EXPECT_EQ(admission.stats().shed_connection_cap, 1u);
  EXPECT_EQ(admission.stats().shed_queue_full, 1u);
  // base × (1 + backlog/watermark): base when empty, 2×base at the
  // watermark — the deepest backlog a shed request can observe.
  EXPECT_DOUBLE_EQ(admission.retry_after_s(0), 0.5);
  EXPECT_DOUBLE_EQ(admission.retry_after_s(1), 0.75);
  EXPECT_DOUBLE_EQ(admission.retry_after_s(2), 1.0);
}

// ---- end-to-end over loopback ----------------------------------------------

TEST(ServeEndToEnd, EveryRegisteredBackendRoundTripsASolve) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());

  const game::BimatrixGame g = game::battle_of_sexes();
  int id = 0;
  for (const std::string& backend : core::SolverRegistry::global().names()) {
    const util::Json response =
        client.request(solve_line(g, id++, backend, 6, 300, 2024));
    ASSERT_TRUE(response.at("ok").as_bool()) << backend << ": "
                                             << response.dump();
    EXPECT_FALSE(response.at("cached").as_bool()) << backend;
    const core::SolveReport report =
        core::report_from_json(response.at("report"));
    EXPECT_EQ(report.backend, backend);
    EXPECT_EQ(report.game_name, g.name()) << backend;
    EXPECT_FALSE(report.samples.empty()) << backend;
    for (const core::SolveSample& s : report.samples) {
      EXPECT_EQ(s.p.size(), g.num_actions1()) << backend;
      EXPECT_EQ(s.q.size(), g.num_actions2()) << backend;
    }
  }
}

TEST(ServeEndToEnd, RepeatedIdenticalRequestIsServedFromTheCache) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());
  const game::BimatrixGame g = game::bird_game();

  const util::Json cold =
      client.request(solve_line(g, 1, "hardware-sa", 4, 400, 51966));
  ASSERT_TRUE(cold.at("ok").as_bool()) << cold.dump();
  EXPECT_FALSE(cold.at("cached").as_bool());

  const util::Json warm =
      client.request(solve_line(g, 2, "hardware-sa", 4, 400, 51966));
  ASSERT_TRUE(warm.at("ok").as_bool()) << warm.dump();
  EXPECT_TRUE(warm.at("cached").as_bool());
  // Byte-identical report (rendering is deterministic, replay is exact —
  // including the modeled timing and the original measured wall clock).
  EXPECT_EQ(warm.at("report").dump(), cold.at("report").dump());

  // Hit counter incremented, and no new SolverService job was submitted.
  const util::Json stats = client.request("{\"method\":\"stats\"}");
  ASSERT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("stats").at("cache").at("hits").as_number(), 1.0);
  EXPECT_EQ(stats.at("stats").at("cache").at("misses").as_number(), 1.0);
  EXPECT_EQ(stats.at("stats").at("served").at("jobs_submitted").as_number(),
            1.0);

  // A different seed is a different solve: miss, new job.
  const util::Json other =
      client.request(solve_line(g, 3, "hardware-sa", 4, 400, 51967));
  ASSERT_TRUE(other.at("ok").as_bool());
  EXPECT_FALSE(other.at("cached").as_bool());
  EXPECT_NE(other.at("report").dump(), cold.at("report").dump());
}

TEST(ServeEndToEnd, PermutedGameIsServedFromTheCacheInItsOwnActionOrder) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());

  const game::BimatrixGame g = game::battle_of_sexes();
  const game::BimatrixGame swapped =
      permute_game(g, {1, 0}, {1, 0}, "swapped bos");

  const util::Json cold = client.request(solve_line(g, 1, "exact-sa", 5, 400));
  ASSERT_TRUE(cold.at("ok").as_bool());
  const util::Json hit =
      client.request(solve_line(swapped, 2, "exact-sa", 5, 400));
  ASSERT_TRUE(hit.at("ok").as_bool()) << hit.dump();
  EXPECT_TRUE(hit.at("cached").as_bool())
      << "permuted-but-identical game must hit the cache";

  // Same solve, reported in the caller's (swapped) action order.
  const core::SolveReport a = core::report_from_json(cold.at("report"));
  const core::SolveReport b = core::report_from_json(hit.at("report"));
  EXPECT_EQ(b.game_name, "swapped bos");
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t s = 0; s < a.samples.size(); ++s) {
    EXPECT_EQ(a.samples[s].p[0], b.samples[s].p[1]);
    EXPECT_EQ(a.samples[s].p[1], b.samples[s].p[0]);
    EXPECT_EQ(a.samples[s].q[0], b.samples[s].q[1]);
    EXPECT_EQ(a.samples[s].q[1], b.samples[s].q[0]);
    EXPECT_EQ(a.samples[s].is_nash, b.samples[s].is_nash);
  }
}

TEST(ServeEndToEnd, LoadSheddingReturnsRetryAfterInsteadOfQueueing) {
  // A watermark of zero sheds every solve that is not answered by the cache:
  // the deterministic way to exercise the queue-full path.
  ServeOptions options;
  options.admission.max_queue_depth = 0;
  options.admission.retry_after_s = 0.25;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  const util::Json shed =
      client.request(solve_line(game::battle_of_sexes(), 9, "exact-sa"));
  ASSERT_FALSE(shed.at("ok").as_bool());
  EXPECT_EQ(shed.at("error").at("code").as_string(), "overloaded");
  EXPECT_GE(shed.at("retry_after_s").as_number(), 0.25);
  EXPECT_EQ(shed.at("id").as_number(), 9.0);

  const util::Json stats = client.request("{\"method\":\"stats\"}");
  EXPECT_EQ(
      stats.at("stats").at("admission").at("shed_queue_full").as_number(),
      1.0);
  EXPECT_EQ(stats.at("stats").at("served").at("jobs_submitted").as_number(),
            0.0);
}

TEST(ServeEndToEnd, PerConnectionInflightCapSheds) {
  ServeOptions options;
  options.admission.per_connection_inflight = 1;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  // Pipeline two solves without waiting: the first occupies the connection's
  // single in-flight slot (a slow hardware solve), the second must shed.
  util::Rng rng(7);
  const game::BimatrixGame big = game::random_integer_game(12, 12, rng);
  client.send_line(solve_line(big, 1, "hardware-sa", 8, 20000));
  client.send_line(solve_line(big, 2, "hardware-sa", 8, 20000, 8));

  // The shed response arrives first (the solve is still running).
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  const util::Json shed = util::Json::parse(line);
  ASSERT_FALSE(shed.at("ok").as_bool()) << line;
  EXPECT_EQ(shed.at("id").as_number(), 2.0);
  EXPECT_EQ(shed.at("error").at("code").as_string(), "overloaded");
  EXPECT_GT(shed.at("retry_after_s").as_number(), 0.0);

  ASSERT_TRUE(client.recv_line(line));
  const util::Json solved = util::Json::parse(line);
  EXPECT_TRUE(solved.at("ok").as_bool()) << line;
  EXPECT_EQ(solved.at("id").as_number(), 1.0);
}

TEST(ServeEndToEnd, CoalescedDuplicatesStillRespectTheConnectionCap) {
  // Duplicates of an in-flight solve occupy waiter slots and output buffers,
  // so they must not bypass the per-connection in-flight cap.
  ServeOptions options;
  options.admission.per_connection_inflight = 1;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  util::Rng rng(17);
  const game::BimatrixGame big = game::random_integer_game(10, 10, rng);
  client.send_line(solve_line(big, 1, "hardware-sa", 6, 20000));
  client.send_line(solve_line(big, 2, "hardware-sa", 6, 20000));  // identical

  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  const util::Json shed = util::Json::parse(line);
  ASSERT_FALSE(shed.at("ok").as_bool()) << line;
  EXPECT_EQ(shed.at("id").as_number(), 2.0);
  EXPECT_EQ(shed.at("error").at("code").as_string(), "overloaded");

  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool()) << line;
}

TEST(ServeEndToEnd, MalformedRequestsGetStructuredErrors) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());

  const util::Json not_json = client.request("this is not json");
  ASSERT_FALSE(not_json.at("ok").as_bool());
  EXPECT_EQ(not_json.at("error").at("code").as_string(), "bad_request");

  const util::Json bad_method =
      client.request("{\"method\":\"frobnicate\",\"id\":3}");
  ASSERT_FALSE(bad_method.at("ok").as_bool());
  EXPECT_EQ(bad_method.at("error").at("code").as_string(), "bad_request");

  const util::Json no_game = client.request("{\"method\":\"solve\"}");
  ASSERT_FALSE(no_game.at("ok").as_bool());
  EXPECT_NE(no_game.at("error").at("message").as_string().find("game"),
            std::string::npos);

  const util::Json ragged = client.request(
      R"({"method":"solve","id":7,"game":{"m":[[1,2],[3]],"n":[[1,2],[3,4]]}})");
  ASSERT_FALSE(ragged.at("ok").as_bool());
  EXPECT_EQ(ragged.at("error").at("code").as_string(), "bad_request");
  // The id-echo contract holds on error responses too (pipelining clients
  // correlate structured errors back to the failing request).
  EXPECT_EQ(ragged.at("id").as_number(), 7.0);

  // Unknown backend: the message names the registered keys (self-correcting
  // clients), and the connection keeps serving afterwards.
  const util::Json unknown = client.request(
      solve_line(game::battle_of_sexes(), 4, "quantum-oracle"));
  ASSERT_FALSE(unknown.at("ok").as_bool());
  EXPECT_EQ(unknown.at("error").at("code").as_string(), "bad_request")
      << "unknown backend is the client's mistake, not a server fault";
  EXPECT_NE(unknown.at("error").at("message").as_string().find("hardware-sa"),
            std::string::npos);

  const util::Json ok =
      client.request(solve_line(game::battle_of_sexes(), 5, "exact-sa"));
  EXPECT_TRUE(ok.at("ok").as_bool());
}

// "batch_lanes" is accepted for wire compatibility and ignored: it is
// outside the cache key, so it cannot split one solve into two entries, but
// a malformed value is still a typed bad_request.
TEST(ServeEndToEnd, BatchLanesIsTypeCheckedThenIgnored) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());
  const game::BimatrixGame g = game::bird_game();
  auto report_bytes = [](const std::string& response) {
    const std::size_t at = response.find(",\"report\":");
    EXPECT_NE(at, std::string::npos) << response;
    return at == std::string::npos ? std::string() : response.substr(at);
  };

  std::string with_field, without_field;
  client.send_line(solve_line(g, 1, "exact-sa", 6, 300, 77,
                              ",\"batch_lanes\":3"));
  ASSERT_TRUE(client.recv_line(with_field));
  client.send_line(solve_line(g, 2, "exact-sa", 6, 300, 77));
  ASSERT_TRUE(client.recv_line(without_field));
  const util::Json cold = util::Json::parse(with_field);
  const util::Json warm = util::Json::parse(without_field);
  ASSERT_TRUE(cold.at("ok").as_bool()) << with_field;
  ASSERT_TRUE(warm.at("ok").as_bool()) << without_field;
  EXPECT_FALSE(cold.at("cached").as_bool());
  EXPECT_TRUE(warm.at("cached").as_bool());
  EXPECT_EQ(report_bytes(without_field), report_bytes(with_field));

  const std::pair<const char*, const char*> malformed[] = {
      {"-1", "\"batch_lanes\" must be a non-negative integer <= 2^53"},
      {"\"x\"", "\"batch_lanes\" must be a number"}};
  int id = 3;
  for (const auto& [value, message] : malformed) {
    const util::Json j =
        client.request(solve_line(g, id, "exact-sa", 6, 300, 77,
                                  std::string(",\"batch_lanes\":") + value));
    ASSERT_FALSE(j.at("ok").as_bool()) << value;
    EXPECT_EQ(j.at("id").as_number(), static_cast<double>(id)) << value;
    EXPECT_EQ(j.at("error").at("code").as_string(), "bad_request") << value;
    EXPECT_EQ(j.at("error").at("message").as_string(), message) << value;
    ++id;
  }
}

TEST(ServeEndToEnd, ZeroIterationsIsABadRequestForSaBackends) {
  // Submit-time validation: an SA backend with zero iterations is the
  // client's mistake, answered with a typed error before any worker (or a
  // chip programming) is involved. Non-SA backends ignore the field.
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());
  int id = 20;
  for (const char* backend :
       {"exact-sa", "hardware-sa", "hardware-sa-tiled", "resilient"}) {
    const util::Json j = client.request(
        solve_line(game::battle_of_sexes(), ++id, backend, 4, 0));
    ASSERT_FALSE(j.at("ok").as_bool()) << backend;
    EXPECT_EQ(j.at("id").as_number(), static_cast<double>(id));
    EXPECT_EQ(j.at("error").at("code").as_string(), "bad_request") << backend;
    EXPECT_NE(j.at("error").at("message").as_string().find("iterations == 0"),
              std::string::npos)
        << j.at("error").at("message").as_string();
  }
  const util::Json lh = client.request(
      solve_line(game::battle_of_sexes(), ++id, "lemke-howson", 1, 0));
  EXPECT_TRUE(lh.at("ok").as_bool());
}

TEST(ServeEndToEnd, StatusReportsQueueDepthAndDrainFlag) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());

  const util::Json response = client.request("{\"method\":\"status\"}");
  ASSERT_TRUE(response.at("ok").as_bool());
  const util::Json& status = response.at("status");
  EXPECT_FALSE(status.at("draining").as_bool());
  EXPECT_EQ(status.at("connections").as_number(), 1.0);
  EXPECT_EQ(status.at("pending_solves").as_number(), 0.0);
  EXPECT_GE(status.at("service").at("threads").as_number(), 1.0);
}

TEST(ServeEndToEnd, GracefulDrainFinishesInFlightWorkAndRejectsNewSolves) {
  ServeOptions options;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  // A slow solve goes in flight, then the drain is requested (the SIGTERM
  // path in nash_serve calls exactly this), then another solve arrives.
  util::Rng rng(11);
  const game::BimatrixGame big = game::random_integer_game(10, 10, rng);
  client.send_line(solve_line(big, 1, "hardware-sa", 6, 20000));
  // Status is answered synchronously on the same connection, so once its
  // response is here the solve is committed to the queue.
  ASSERT_EQ(client.request("{\"method\":\"status\"}")
                .at("status")
                .at("pending_solves")
                .as_number(),
            1.0);
  fixture.server().request_stop();
  // Wait until the poll loop observed the stop before posting the late solve
  // (otherwise it could still be admitted — request_stop is asynchronous).
  for (;;) {
    if (client.request("{\"method\":\"status\"}")
            .at("status")
            .at("draining")
            .as_bool())
      break;
  }
  client.send_line(solve_line(big, 2, "exact-sa", 2, 200));

  // Both responses arrive before the server closes the connection: the
  // in-flight solve completes, the late one is refused as draining.
  std::string line;
  util::Json by_id[3];
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.recv_line(line)) << "connection closed early";
    const util::Json response = util::Json::parse(line);
    const int id = static_cast<int>(response.at("id").as_number());
    ASSERT_TRUE(id == 1 || id == 2);
    by_id[id] = response;
  }
  EXPECT_TRUE(by_id[1].at("ok").as_bool()) << by_id[1].dump();
  ASSERT_FALSE(by_id[2].at("ok").as_bool());
  EXPECT_EQ(by_id[2].at("error").at("code").as_string(), "draining");
  EXPECT_GT(by_id[2].at("retry_after_s").as_number(), 0.0);

  // ... then the server closes the connection and run() returns.
  EXPECT_FALSE(client.recv_line(line));
  fixture.stop();
  EXPECT_EQ(fixture.server().served_stats().solves_ok, 1u);
  EXPECT_EQ(fixture.server().served_stats().errors, 1u);
}

TEST(ServeEndToEnd, IdenticalInFlightSolvesAreCoalescedOntoOneJob) {
  ServeOptions options;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  util::Rng rng(13);
  const game::BimatrixGame big = game::random_integer_game(10, 10, rng);
  // Two identical slow solves pipelined back to back: the second must attach
  // to the first job, not submit a duplicate.
  client.send_line(solve_line(big, 1, "hardware-sa", 6, 20000));
  client.send_line(solve_line(big, 2, "hardware-sa", 6, 20000));

  std::string line;
  util::Json responses[2];
  for (auto& response : responses) {
    ASSERT_TRUE(client.recv_line(line));
    response = util::Json::parse(line);
    ASSERT_TRUE(response.at("ok").as_bool()) << line;
  }
  EXPECT_EQ(responses[0].at("report").dump(), responses[1].at("report").dump());

  const util::Json stats = client.request("{\"method\":\"stats\"}");
  EXPECT_EQ(stats.at("stats").at("served").at("jobs_submitted").as_number(),
            1.0);
  EXPECT_EQ(stats.at("stats").at("admission").at("coalesced").as_number(),
            1.0);
}

// ---- threaded gateway (epoll event loops) -----------------------------------

TEST(ServeThreaded, ConcurrentSolvesAcrossConnectionsAllSucceed) {
  ServeOptions options;
  options.serve_threads = 4;
  ServerFixture fixture(options);

  constexpr int kClients = 8;
  constexpr int kSolvesEach = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      LineClient client;
      if (!client.connect_to(fixture.port())) return;
      const game::BimatrixGame g = game::battle_of_sexes();
      for (int r = 0; r < kSolvesEach; ++r) {
        // Distinct seeds: every solve is a genuine job, no cache/coalesce.
        if (!client.send_line(solve_line(g, r, "exact-sa", 4, 300,
                                         1000 + c * 100 + r)))
          return;
        std::string response;
        if (!client.recv_line(response)) return;
        if (util::Json::parse(response).at("ok").as_bool()) ok_count++;
      }
    });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kSolvesEach);

  fixture.stop();
  EXPECT_EQ(fixture.server().served_stats().solves_ok,
            static_cast<std::size_t>(kClients * kSolvesEach));
  EXPECT_EQ(fixture.server().served_stats().errors, 0u);
}

TEST(ServeThreaded, IdenticalSolvesCoalesceAcrossWorkerLoops) {
  // Connections are sharded round-robin, so three clients land on three
  // different event loops; their identical in-flight solves must still
  // coalesce onto one SolverService job through the shared gate.
  ServeOptions options;
  options.serve_threads = 4;
  options.service_threads = 1;
  ServerFixture fixture(options);

  util::Rng rng(23);
  const game::BimatrixGame big = game::random_integer_game(10, 10, rng);
  const std::string line = solve_line(big, 1, "hardware-sa", 6, 20000);

  TestClient first;
  first.connect_to(fixture.port());
  first.send_line(line);
  // The solve is committed once status (same connection, ordered) shows it.
  for (;;) {
    if (first.request("{\"method\":\"status\"}")
            .at("status")
            .at("pending_solves")
            .as_number() == 1.0)
      break;
  }

  // Send both duplicates before waiting on either — a blocking request()
  // would only let the second one leave after the job completed (and hit the
  // cache instead of coalescing).
  TestClient second, third;
  second.connect_to(fixture.port());
  third.connect_to(fixture.port());
  second.send_line(line);
  third.send_line(line);
  std::string response;
  ASSERT_TRUE(second.recv_line(response));
  const util::Json r2 = util::Json::parse(response);
  ASSERT_TRUE(third.recv_line(response));
  const util::Json r3 = util::Json::parse(response);
  ASSERT_TRUE(first.recv_line(response));
  const util::Json r1 = util::Json::parse(response);

  ASSERT_TRUE(r1.at("ok").as_bool()) << response;
  ASSERT_TRUE(r2.at("ok").as_bool()) << r2.dump();
  ASSERT_TRUE(r3.at("ok").as_bool()) << r3.dump();
  EXPECT_EQ(r1.at("report").dump(), r2.at("report").dump());
  EXPECT_EQ(r1.at("report").dump(), r3.at("report").dump());

  fixture.stop();
  EXPECT_EQ(fixture.server().served_stats().jobs_submitted, 1u);
  EXPECT_EQ(fixture.server().served_stats().coalesced, 2u);
}

TEST(ServeThreaded, DrainFinishesInFlightWorkOnEveryLoop) {
  ServeOptions options;
  options.serve_threads = 3;
  options.service_threads = 2;
  ServerFixture fixture(options);

  // One client per event loop (round-robin sharding), each with its own
  // slow solve in flight (distinct seeds — no coalescing).
  util::Rng rng(29);
  const game::BimatrixGame big = game::random_integer_game(8, 8, rng);
  TestClient clients[3];
  for (int c = 0; c < 3; ++c) {
    clients[c].connect_to(fixture.port());
    clients[c].send_line(
        solve_line(big, c, "hardware-sa", 4, 8000, 9000 + c));
  }
  for (;;) {
    if (clients[0]
            .request("{\"method\":\"status\"}")
            .at("status")
            .at("pending_solves")
            .as_number() == 3.0)
      break;
  }

  fixture.server().request_stop();
  // Every loop delivers its connection's final report, then closes.
  for (int c = 0; c < 3; ++c) {
    std::string response;
    ASSERT_TRUE(clients[c].recv_line(response)) << "loop " << c
                                                << " closed early";
    const util::Json j = util::Json::parse(response);
    EXPECT_TRUE(j.at("ok").as_bool()) << response;
    EXPECT_EQ(j.at("id").as_number(), static_cast<double>(c));
    EXPECT_FALSE(clients[c].recv_line(response)) << "expected EOF after drain";
  }
  fixture.stop();
  EXPECT_EQ(fixture.server().served_stats().solves_ok, 3u);
}

// ---- binary framing ---------------------------------------------------------

TEST(ServeFraming, BinaryAndJsonRoundTripByteIdenticalReports) {
  ServeOptions options;
  options.serve_threads = 2;
  ServerFixture fixture(options);
  const game::BimatrixGame g = game::bird_game();

  TestClient json_client;
  json_client.connect_to(fixture.port());
  LineClient binary;
  ASSERT_TRUE(binary.connect_to(fixture.port())) << std::strerror(errno);

  // JSON cold solve, then the identical solve over binary framing: answered
  // from the cache with the byte-for-bytes same report JSON.
  const util::Json cold =
      json_client.request(solve_line(g, 1, "hardware-sa", 4, 400, 77));
  ASSERT_TRUE(cold.at("ok").as_bool()) << cold.dump();
  ASSERT_TRUE(binary.send_frame(kFrameSolve,
                                solve_line(g, 2, "hardware-sa", 4, 400, 77)));
  unsigned char type = 0;
  std::string payload;
  ASSERT_TRUE(binary.recv_frame(type, payload));
  EXPECT_EQ(type, kFrameFinal);
  const util::Json warm = util::Json::parse(payload);
  ASSERT_TRUE(warm.at("ok").as_bool()) << payload;
  EXPECT_TRUE(warm.at("cached").as_bool());
  EXPECT_EQ(warm.at("report").dump(), cold.at("report").dump());

  // The reverse direction: binary cold solve, JSON cached replay.
  ASSERT_TRUE(binary.send_frame(kFrameSolve,
                                solve_line(g, 3, "hardware-sa", 4, 400, 78)));
  ASSERT_TRUE(binary.recv_frame(type, payload));
  ASSERT_EQ(type, kFrameFinal);
  const util::Json cold2 = util::Json::parse(payload);
  ASSERT_TRUE(cold2.at("ok").as_bool()) << payload;
  EXPECT_FALSE(cold2.at("cached").as_bool());
  const util::Json warm2 =
      json_client.request(solve_line(g, 4, "hardware-sa", 4, 400, 78));
  ASSERT_TRUE(warm2.at("ok").as_bool());
  EXPECT_TRUE(warm2.at("cached").as_bool());
  EXPECT_EQ(warm2.at("report").dump(), cold2.at("report").dump());

  // Non-solve methods ride the frame type with an empty payload.
  ASSERT_TRUE(binary.send_frame(kFrameStatus, ""));
  ASSERT_TRUE(binary.recv_frame(type, payload));
  EXPECT_EQ(type, kFrameFinal);
  EXPECT_TRUE(util::Json::parse(payload).at("ok").as_bool());
  ASSERT_TRUE(binary.send_frame(kFrameListBackends, ""));
  ASSERT_TRUE(binary.recv_frame(type, payload));
  EXPECT_FALSE(util::Json::parse(payload).at("backends").size() == 0);
}

TEST(ServeFraming, MalformedFrameHeaderGetsStructuredErrorThenClose) {
  ServerFixture fixture;
  LineClient client;
  ASSERT_TRUE(client.connect_to(fixture.port())) << std::strerror(errno);

  // The magic's first byte negotiates binary framing; the second is wrong, so
  // the stream can never resynchronise — expect one structured error frame,
  // then a close.
  const char junk[8] = {static_cast<char>(0xCE), 0x00, 0x01, 0x01, 0, 0, 0, 0};
  ASSERT_TRUE(client.send_raw(junk, sizeof junk));
  unsigned char type = 0;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(type, payload));
  EXPECT_EQ(type, kFrameError);
  const util::Json j = util::Json::parse(payload);
  EXPECT_FALSE(j.at("ok").as_bool());
  EXPECT_EQ(j.at("error").at("code").as_string(), "bad_request");
  EXPECT_FALSE(client.recv_frame(type, payload)) << "expected close";
}

// ---- anytime progress streaming ---------------------------------------------

TEST(ServeAnytime, ProgressFramesStreamBeforeTheFinalReport) {
  // One service worker makes the unit schedule serial: 4 runs → 4 units →
  // exactly one interim frame per non-final unit.
  ServeOptions options;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  const game::BimatrixGame g = game::bird_game();
  client.send_line(
      solve_line(g, 1, "exact-sa", 4, 300, 555, ",\"progress\":true"));

  int progress_seen = 0;
  double last_completed = 0.0;
  for (;;) {
    std::string response;
    ASSERT_TRUE(client.recv_line(response));
    const util::Json j = util::Json::parse(response);
    ASSERT_TRUE(j.at("ok").as_bool()) << response;
    EXPECT_EQ(j.at("id").as_number(), 1.0);
    if (const util::Json* p = j.find("progress")) {
      progress_seen++;
      EXPECT_EQ(p->at("units_total").as_number(), 4.0);
      EXPECT_GT(p->at("units_completed").as_number(), last_completed)
          << "interim frames must be monotone in units_completed";
      last_completed = p->at("units_completed").as_number();
      EXPECT_GE(p->at("elapsed_s").as_number(), 0.0);
      continue;
    }
    // The final frame always follows the interim ones.
    EXPECT_FALSE(j.at("cached").as_bool());
    const core::SolveReport report =
        core::report_from_json(j.at("report"));
    EXPECT_EQ(report.samples.size(), 4u);
    EXPECT_FALSE(report.degraded);
    break;
  }
  EXPECT_EQ(progress_seen, 3);

  // A plain solve (no "progress") streams nothing extra — the cached replay
  // is its immediate, single response.
  const util::Json replay =
      client.request(solve_line(g, 2, "exact-sa", 4, 300, 555));
  EXPECT_TRUE(replay.at("cached").as_bool());

  fixture.stop();
  EXPECT_EQ(fixture.server().served_stats().progress_frames, 3u);
}

// ---- pipelining fairness ----------------------------------------------------

TEST(ServeFairness, PipelinedBurstIsBoundedPerWakeup) {
  ServeOptions options;
  options.max_requests_per_wakeup = 2;
  ServerFixture fixture(options);
  LineClient client;
  ASSERT_TRUE(client.connect_to(fixture.port())) << std::strerror(errno);

  // One 8-request burst in a single segment: the loop may dequeue at most two
  // per wakeup, deferring the rest to its backlog — every response still
  // arrives, and the deferral counter proves the bound engaged.
  std::string burst;
  for (int i = 0; i < 8; ++i)
    burst += "{\"method\":\"status\",\"id\":" + std::to_string(i) + "}\n";
  ASSERT_TRUE(client.send_raw(burst.data(), burst.size()));
  for (int i = 0; i < 8; ++i) {
    std::string line;
    ASSERT_TRUE(client.recv_line(line)) << "response " << i;
    EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool());
  }
  fixture.stop();
  EXPECT_EQ(fixture.server().served_stats().lines, 8u);
  EXPECT_GE(fixture.server().served_stats().fair_deferrals, 1u);
}

// ---- byte charge ------------------------------------------------------------

/// Solved reports whose sizes are fixed by their requests alone (sample
/// counts and dimensions do not depend on timing): an SA report with
/// quantized profiles, a named lemke-howson report without them, a
/// replica-exchange report and a hardware-sa report.
std::vector<std::shared_ptr<const core::SolveReport>> charge_reports() {
  util::Rng rng(2024);
  std::vector<std::shared_ptr<const core::SolveReport>> out;
  auto add = [&](core::SolveRequest request, const std::string& name) {
    core::SolveReport report =
        core::SolverRegistry::global().at(request.backend).solve(request);
    report.game_name = name;
    out.push_back(std::make_shared<const core::SolveReport>(std::move(report)));
  };
  add(quick_request(game::bird_game(), "exact-sa", 4, 1), "");
  add(quick_request(game::random_integer_game(5, 3, rng), "lemke-howson", 1, 2),
      "named \"lh\" \\ game");
  core::SolveRequest re =
      quick_request(game::random_integer_game(4, 4, rng), "exact-sa", 3, 3);
  re.sa.mode = core::SaMode::kReplicaExchange;
  re.sa.replicas = 4;
  add(std::move(re), "");
  add(quick_request(game::random_integer_game(6, 6, rng), "hardware-sa", 2, 4),
      "");
  return out;
}

TEST(SolutionCache, ByteChargeSequenceIsPinned) {
  // A fixed insert / lookup / evict / reopen-and-promote sequence. The
  // expected trace was recorded with entries that held decoded reports and
  // charged report_footprint() of them; entries now hold bytes, and disk
  // promotions are charged off the bytes without decoding, so any drift in
  // the charge shows up here.
  const auto reports = charge_reports();
  std::string dir = (std::filesystem::temp_directory_path() /
                     "cnash_charge_XXXXXX")
                        .string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  constexpr std::size_t kBudget = 3000;
  std::string trace;
  auto snap = [&](const SolutionCache& cache) {
    const CacheStats& s = cache.stats();
    for (const std::size_t v : {s.hits, s.misses, s.insertions, s.evictions,
                                s.oversize_rejects, s.entries, s.bytes})
      trace += std::to_string(v) + ',';
    trace.back() = ';';
  };
  {
    store::SolutionStore store(dir);
    SolutionCache cache(kBudget);
    cache.attach_store(&store);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      cache.insert(fake_key(static_cast<char>('a' + i)), reports[i]);
      snap(cache);
    }
    for (const char k : {'a', 'd', 'b', 'c', 'x', 'a'}) {
      cache.lookup(fake_key(k));
      snap(cache);
    }
  }
  {
    store::SolutionStore store(dir);  // reopened: entries come back from disk
    SolutionCache cache(kBudget);
    cache.attach_store(&store);
    for (const char k : {'d', 'a', 'b', 'c', 'a', 'x', 'b'}) {
      cache.lookup(fake_key(k));
      snap(cache);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  EXPECT_EQ(trace,
            "0,0,1,0,0,1,1245;0,0,2,0,0,2,1759;0,0,3,0,0,3,2828;0,0,4,1,0"
            ",3,2479;0,1,5,3,0,2,2141;1,1,5,3,0,2,2141;1,2,6,3,0,3,2655;1"
            ",3,7,4,0,3,2479;1,4,7,4,0,3,2479;1,5,8,5,0,3,2828;0,1,1,0,0,"
            "1,896;0,2,2,0,0,2,2141;0,3,3,0,0,3,2655;0,4,4,1,0,3,2828;1,4"
            ",4,1,0,3,2828;1,5,4,1,0,3,2828;2,5,4,1,0,3,2828;");
}

TEST(SolutionCache, ByteScanChargesWhatTheDecodedReportWouldBe) {
  // A store hit is admitted without decoding: report_json_footprint() must
  // agree with report_footprint() of the report the bytes decode to.
  for (const auto& report : charge_reports()) {
    std::string bytes;
    core::append_report_json(bytes, *report);
    const std::optional<std::size_t> scanned = report_json_footprint(bytes);
    ASSERT_TRUE(scanned.has_value()) << bytes;
    EXPECT_EQ(*scanned, report_footprint(*report)) << bytes;
    EXPECT_EQ(*scanned, report_footprint(core::report_from_json(
                            util::Json::parse(bytes))));
  }
  for (const std::string bad :
       {"", "{}", "[]", "{\"backend\":\"x\",\"game\":\"\"}",
        "{\"backend\":\"x\",\"game\":\"\",\"samples\":[{\"p\":[1,]}]}",
        "{\"backend\":\"x\",\"game\":\"\",\"samples\":[]} trailing"})
    EXPECT_FALSE(report_json_footprint(bad).has_value()) << bad;
}

// ---- spliced responses ------------------------------------------------------
//
// Cache and store hits (and every waiter of a fresh job) are answered from the
// canonical report bytes: identity-order callers get the envelope and their
// name spliced around them, permuted callers a decoded, remapped report. Each
// response must equal what render_solve_ok_body(map_to_original(...)) gives.

/// Names that exercise every escape of the JSON string writer.
const std::vector<std::string>& splice_names() {
  static const std::vector<std::string> names = {
      "",
      "plain",
      "say \"cheese\"",
      "back\\slash",
      std::string("ctl\x01\x1f\n\t\r\b\f end"),
      "utf-8 \xc3\xbcn\xc3\xaf \xe2\x9c\x93",
  };
  return names;
}

/// Mappings of an n×m report onto callers: the identity under every splice
/// name, then reversed rows with rotated columns, and one swapped pair.
std::vector<ReportMapping> splice_mappings(std::size_t n, std::size_t m) {
  std::vector<ReportMapping> mappings;
  ReportMapping identity;
  identity.row_perm.resize(n);
  identity.col_perm.resize(m);
  std::iota(identity.row_perm.begin(), identity.row_perm.end(), 0u);
  std::iota(identity.col_perm.begin(), identity.col_perm.end(), 0u);
  for (const std::string& name : splice_names()) {
    mappings.push_back(identity);
    mappings.back().original_name = name;
  }
  ReportMapping moved = identity;
  std::reverse(moved.row_perm.begin(), moved.row_perm.end());
  std::rotate(moved.col_perm.begin(), moved.col_perm.begin() + 1,
              moved.col_perm.end());
  moved.original_name = "moved \"m\" \\ \x02";
  mappings.push_back(moved);
  ReportMapping swapped = identity;
  std::swap(swapped.col_perm.front(), swapped.col_perm.back());
  mappings.push_back(swapped);
  return mappings;
}

TEST(ServeSplice, SplicedBodyEqualsTheRenderedBody) {
  const std::vector<util::Json> ids = {util::Json::number(7),
                                       util::Json::string("req-\"1\""),
                                       util::Json()};
  for (const auto& report : charge_reports()) {
    std::string bytes;
    core::append_report_json(bytes, *report);
    const std::size_t n = report->samples.front().p.size();
    const std::size_t m = report->samples.front().q.size();
    for (const ReportMapping& mapping : splice_mappings(n, m))
      for (const util::Json& id : ids)
        for (const bool cached : {false, true}) {
          std::string expected, spliced;
          render_solve_ok_body(expected, id, cached,
                               map_to_original(mapping, *report));
          render_solve_ok_spliced(spliced, id, cached, bytes, mapping);
          EXPECT_EQ(spliced, expected) << mapping.original_name;
        }
  }
}

TEST(ServeSplice, BytesOutsideTheWriterLayoutAreRejected) {
  const auto report = charge_reports().front();
  std::string bytes;
  core::append_report_json(bytes, *report);
  const std::vector<ReportMapping> mappings = splice_mappings(
      report->samples.front().p.size(), report->samples.front().q.size());
  ReportMapping short_perm = mappings.back();
  short_perm.row_perm.pop_back();
  std::string body;
  for (const ReportMapping& mapping : {mappings.front(), mappings.back()}) {
    EXPECT_THROW(render_solve_ok_spliced(body, util::Json(), true,
                                         "{\"backend\":\"x\"}", mapping),
                 std::invalid_argument);
  }
  // Cut inside the first strategy array: it never closes.
  const std::string cut = bytes.substr(0, bytes.find("\"q\":[") + 6);
  EXPECT_THROW(
      render_solve_ok_spliced(body, util::Json(), true, cut, mappings.back()),
      std::invalid_argument);
  EXPECT_THROW(
      render_solve_ok_spliced(body, util::Json(), true, bytes, short_perm),
      std::invalid_argument);
}

/// A solve line carrying the game as a JSON object, so any name (control
/// characters included) and every payoff travel exactly.
std::string object_solve_line(const game::BimatrixGame& g, int id,
                              const std::string& params) {
  util::Json game = util::Json::object();
  game.set("name", g.name());
  for (const auto& [key, matrix] :
       {std::pair<const char*, const la::Matrix*>{"m", &g.payoff1()},
        {"n", &g.payoff2()}}) {
    util::Json rows = util::Json::array();
    for (std::size_t r = 0; r < matrix->rows(); ++r) {
      util::Json& row = rows.push(util::Json::array());
      for (std::size_t c = 0; c < matrix->cols(); ++c)
        row.push(util::Json::number((*matrix)(r, c)));
    }
    game.set(key, std::move(rows));
  }
  return "{\"method\":\"solve\",\"id\":" + std::to_string(id) +
         ",\"game\":" + game.dump() + params + "}";
}

/// Today's response to `line` when answered from `canonical`, the report in
/// canonical action order.
std::string expected_response(const std::string& line, bool cached,
                              const core::SolveReport& canonical) {
  WireRequest request = parse_request(line);
  const CanonicalRequest c = canonicalize(std::move(*request.solve));
  std::string body;
  render_solve_ok_body(body, request.id, cached,
                       map_to_original(c.mapping, canonical));
  return body;
}

bool identity_order(const std::string& line) {
  return canonicalize(*parse_request(line).solve).mapping.identity_order();
}

std::string raw_roundtrip(TestClient& client, const std::string& line) {
  client.send_line(line);
  std::string response;
  EXPECT_TRUE(client.recv_line(response));
  return response;
}

/// The game in its canonical action order, under `name`: a request for it
/// maps to its canonical report by the identity.
game::BimatrixGame canonical_game(const game::BimatrixGame& g,
                                  const std::string& name) {
  const game::BimatrixGame c = canonicalize(core::SolveRequest(g)).request.game;
  return game::BimatrixGame(c.payoff1(), c.payoff2(), name);
}

/// Requests for one canonical game: identity-order ones under every splice
/// name, then two permuted ones (one with an escaped name).
std::vector<std::string> hit_lines(const game::BimatrixGame& canon,
                                   const std::string& params, int first_id) {
  std::vector<std::string> lines;
  int id = first_id;
  for (const std::string& name : splice_names())
    lines.push_back(object_solve_line(
        game::BimatrixGame(canon.payoff1(), canon.payoff2(), name), id++,
        params));
  const std::size_t n = canon.num_actions1(), m = canon.num_actions2();
  std::vector<std::uint32_t> rows(n), cols(m);
  std::iota(rows.rbegin(), rows.rend(), 0u);
  std::iota(cols.begin(), cols.end(), 0u);
  std::swap(cols[0], cols[m - 1]);
  lines.push_back(object_solve_line(
      permute_game(canon, rows, cols, "permuted \"p\""), id++, params));
  std::iota(rows.begin(), rows.end(), 0u);
  std::swap(rows[0], rows[1]);
  lines.push_back(
      object_solve_line(permute_game(canon, rows, cols, ""), id++, params));
  return lines;
}

constexpr const char* kSpliceParams =
    ",\"backend\":\"exact-sa\",\"runs\":4,\"iterations\":300,\"seed\":7";
constexpr const char* kSpliceReplicaParams =
    ",\"backend\":\"exact-sa\",\"runs\":3,\"iterations\":300,\"seed\":9,"
    "\"sa_mode\":\"replica-exchange\",\"replicas\":4";

TEST(ServeSplice, RamHitsMatchTheRenderedResponseForEveryNameAndOrder) {
  util::Rng rng(31);
  for (const char* params : {kSpliceParams, kSpliceReplicaParams}) {
    ServerFixture fixture;
    TestClient client;
    client.connect_to(fixture.port());
    const game::BimatrixGame canon =
        canonical_game(game::random_integer_game(4, 3, rng), "cold");
    const std::string cold_line = object_solve_line(canon, 1, params);
    ASSERT_TRUE(identity_order(cold_line));
    const std::string cold = raw_roundtrip(client, cold_line);
    const core::SolveReport canonical =
        core::report_from_json(util::Json::parse(cold).at("report"));
    ASSERT_TRUE(util::Json::parse(cold).at("ok").as_bool()) << cold;
    EXPECT_EQ(cold, expected_response(cold_line, false, canonical));

    const std::vector<std::string> lines = hit_lines(canon, params, 2);
    ASSERT_FALSE(identity_order(lines.back()));
    for (const std::string& line : lines)
      EXPECT_EQ(raw_roundtrip(client, line),
                expected_response(line, true, canonical))
          << line;
    EXPECT_EQ(fixture.server().cache_stats().hits, lines.size());
    EXPECT_EQ(fixture.server().served_stats().jobs_submitted, 1u);
  }
}

TEST(ServeSplice, StoreHitsAfterAReopenMatchTheRenderedResponse) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "cnash_splice_XXXXXX")
                        .string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  util::Rng rng(37);
  const game::BimatrixGame canon =
      canonical_game(game::random_integer_game(3, 4, rng), "first life");
  const std::string cold_line = object_solve_line(canon, 1, kSpliceParams);
  ServeOptions options;
  options.store_dir = dir;
  std::string cold;
  {
    ServerFixture fixture(options);
    TestClient client;
    client.connect_to(fixture.port());
    cold = raw_roundtrip(client, cold_line);
  }
  const core::SolveReport canonical =
      core::report_from_json(util::Json::parse(cold).at("report"));

  // No report fits the RAM tier, so every hit is read back from disk.
  options.cache_bytes = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());
  const std::vector<std::string> lines = hit_lines(canon, kSpliceParams, 2);
  for (const std::string& line : lines)
    EXPECT_EQ(raw_roundtrip(client, line),
              expected_response(line, true, canonical))
        << line;
  EXPECT_EQ(fixture.server().store()->stats().hits, lines.size());
  EXPECT_EQ(fixture.server().served_stats().jobs_submitted, 0u);
  fixture.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ServeSplice, CoalescedWaitersGetTheirOwnNameAndOrder) {
  ServeOptions options;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient first, second;
  first.connect_to(fixture.port());
  second.connect_to(fixture.port());

  // A slow job, and three more requests for it in other names and orders
  // pipelined behind it on two connections: all attach to the one job.
  util::Rng rng(41);
  const game::BimatrixGame canon =
      canonical_game(game::random_integer_game(10, 10, rng), "slow \"0\"");
  const std::string params =
      ",\"backend\":\"hardware-sa\",\"runs\":6,\"iterations\":20000";
  const std::string cold_line = object_solve_line(canon, 1, params);
  const std::vector<std::string> lines = hit_lines(canon, params, 2);
  const std::vector<std::string> waiters = {lines[2], lines[4],
                                            lines[lines.size() - 2]};
  first.send_line(cold_line);
  first.send_line(waiters[0]);
  first.send_line(waiters[1]);
  second.send_line(waiters[2]);

  std::string cold, response;
  ASSERT_TRUE(first.recv_line(cold));
  const core::SolveReport canonical =
      core::report_from_json(util::Json::parse(cold).at("report"));
  EXPECT_EQ(cold, expected_response(cold_line, false, canonical));
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(first.recv_line(response));
    EXPECT_EQ(response, expected_response(waiters[i], false, canonical));
  }
  ASSERT_TRUE(second.recv_line(response));
  EXPECT_EQ(response, expected_response(waiters[2], false, canonical));
  EXPECT_EQ(fixture.server().served_stats().jobs_submitted, 1u);
  EXPECT_EQ(fixture.server().served_stats().coalesced, 3u);
}

TEST(ServeSplice, NoCacheSolvesAreSplicedAndStayOutOfTheCache) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());
  util::Rng rng(43);
  const game::BimatrixGame canon =
      canonical_game(game::random_integer_game(4, 4, rng), "cached");
  const std::string cold_line = object_solve_line(canon, 1, kSpliceParams);
  const core::SolveReport canonical = core::report_from_json(
      util::Json::parse(raw_roundtrip(client, cold_line)).at("report"));

  // no_cache re-solves: the same report apart from the measured wall clock.
  const std::string params = std::string(kSpliceParams) + ",\"no_cache\":true";
  for (const std::string& line : hit_lines(canon, params, 2)) {
    const std::string response = raw_roundtrip(client, line);
    core::SolveReport expected = canonical;
    expected.wall_clock_s = core::report_from_json(
                                util::Json::parse(response).at("report"))
                                .wall_clock_s;
    EXPECT_EQ(response, expected_response(line, false, expected)) << line;
  }
  EXPECT_EQ(fixture.server().cache_stats().insertions, 1u);
  EXPECT_EQ(fixture.server().cache_stats().hits, 0u);
}

}  // namespace
}  // namespace cnash::serve
