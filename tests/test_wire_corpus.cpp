// Golden wire corpus: the exact bytes the gateway puts on the wire and in the
// tier-2 store for a fixed set of reports. tests/data/wire_corpus.txt pins
//   * render_solve_ok_body bodies (the solve response, both framings carry it)
//   * store values (what SolutionCache::insert writes through to the store)
// for one report per serve-mix request class (exact-sa 2x2 and 16x16,
// lemke-howson 12x12, hardware-sa 4x4, hardware-sa-tiled 8x8), a
// replica-exchange report with swap counters, a resilient report with
// fallback samples, a degraded report and an all-invalid report whose
// best_objective is NaN — echoed with number, string, object and null ids.
// The solves are deterministic for a fixed request; wall_clock_s, the one
// scheduling-dependent field, is pinned. Any change to the response or store
// encoding, number formatting included, shows up here as a byte diff.
//
// Corpus format: one header line "<kind> <label>" followed by one line of
// payload bytes (every payload is single-line JSON). On a mismatch the test
// writes the bytes it produced next to gtest's temp dir and names the file,
// so an intentional format change is regenerated from that file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/report_json.hpp"
#include "game/games.hpp"
#include "game/random_games.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/protocol.hpp"
#include "store/store.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cnash {
namespace {

namespace fs = std::filesystem;

constexpr double kPinnedWallClock = 0.0123456789;

struct Case {
  std::string label;
  core::SolveRequest request;
};

/// serve-mix's request classes, each on one seeded game.
std::vector<Case> class_cases() {
  struct Class {
    const char* backend;
    std::size_t actions, runs, iterations;
  };
  const Class classes[] = {
      {"exact-sa", 2, 8, 400},
      {"exact-sa", 16, 4, 400},
      {"lemke-howson", 12, 1, 0},
      {"hardware-sa", 4, 4, 300},
      {"hardware-sa-tiled", 8, 2, 300},
  };
  std::vector<Case> cases;
  util::Rng rng(20240611);
  for (const Class& cls : classes) {
    const bool hw = std::string(cls.backend).rfind("hardware", 0) == 0;
    core::SolveRequest r(
        hw ? game::random_integer_game(cls.actions, cls.actions, rng)
           : game::random_covariant_game(cls.actions, cls.actions, 0.0, rng));
    r.backend = cls.backend;
    r.runs = cls.runs;
    r.sa.iterations = cls.iterations;
    r.seed = rng() >> 12;
    cases.push_back({std::string(cls.backend) + "-" +
                         std::to_string(cls.actions) + "x" +
                         std::to_string(cls.actions),
                     std::move(r)});
  }
  return cases;
}

core::SolveReport solve(const core::SolveRequest& request) {
  core::SolveReport report =
      core::SolverRegistry::global().at(request.backend).solve(request);
  report.wall_clock_s = kPinnedWallClock;
  return report;
}

struct Labeled {
  std::string label;
  core::SolveReport report;   // canonical order (what the store holds)
  core::SolveReport mapped;   // caller's order (what the response carries)
};

std::vector<Labeled> corpus_reports() {
  std::vector<Labeled> out;
  auto add = [&](std::string label, core::SolveRequest request) {
    serve::CanonicalRequest c = serve::canonicalize(std::move(request));
    core::SolveReport report = solve(c.request);
    core::SolveReport mapped = serve::map_to_original(c.mapping, report);
    out.push_back({std::move(label), std::move(report), std::move(mapped)});
  };
  for (Case& c : class_cases()) add(c.label, std::move(c.request));

  core::SolveRequest re(game::coordination(3));
  re.backend = "exact-sa";
  re.runs = 2;
  re.seed = 11;
  re.sa.iterations = 400;
  re.sa.mode = core::SaMode::kReplicaExchange;
  re.sa.replicas = 4;
  add("exact-sa-replica-exchange", std::move(re));

  core::SolveRequest fb(game::battle_of_sexes());
  fb.backend = "resilient";
  fb.runs = 6;
  fb.seed = 5;
  fb.sa.iterations = 300;
  fb.fault.seed = 5;
  fb.fault.unit_failure_rate = 0.5;
  add("resilient-fallback", std::move(fb));

  // Deadline degradation depends on timing, so the flags are set by hand on
  // a real report: two of its units "did not run".
  Labeled degraded = out[3];
  degraded.label = "hardware-sa-degraded";
  for (core::SolveReport* r : {&degraded.report, &degraded.mapped}) {
    r->degraded = true;
    r->units_total = r->samples.size() + 2;
    r->units_completed = r->samples.size();
  }
  out.push_back(std::move(degraded));

  Labeled invalid = out[0];
  invalid.label = "exact-sa-all-invalid";
  for (core::SolveReport* r : {&invalid.report, &invalid.mapped}) {
    for (core::SolveSample& s : r->samples) {
      s.valid = false;
      s.is_nash = false;
      s.regret = std::numeric_limits<double>::quiet_NaN();
    }
    r->nash_count = 0;
    r->valid_count = 0;
    r->best_objective = std::numeric_limits<double>::quiet_NaN();
  }
  out.push_back(std::move(invalid));
  return out;
}

std::vector<std::pair<std::string, util::Json>> corpus_ids() {
  util::Json object = util::Json::object();
  object.set("client", "c1");
  util::Json seq = util::Json::array();
  seq.push(util::Json::number(1));
  seq.push(util::Json::number(2.5));
  object.set("seq", std::move(seq));
  return {{"number", util::Json::number(42)},
          {"string", util::Json::string("warm-\"7\"")},
          {"object", std::move(object)},
          {"null", util::Json::null()}};
}

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "cnash_wire_XXXXXX").string();
    const char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    dir_ = made ? made : "";
  }
  ~TempDir() {
    std::error_code ec;
    if (!dir_.empty()) fs::remove_all(dir_, ec);
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

/// The corpus as the current code renders it.
std::string render_corpus() {
  const std::vector<Labeled> reports = corpus_reports();
  const auto ids = corpus_ids();
  TempDir dir;
  store::SolutionStore store(dir.path());
  serve::SolutionCache cache(1u << 24);
  cache.attach_store(&store);

  std::string corpus;
  std::string body;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Labeled& l = reports[i];
    const serve::GameKey key{i + 1, l.label};
    cache.insert(key, std::make_shared<const core::SolveReport>(l.report));
    const auto value = store.get(key.digest, key.blob);
    EXPECT_TRUE(value.has_value()) << l.label;
    corpus += "store " + l.label + "\n" + value.value_or("") + "\n";

    // The first report is echoed under every id kind, the rest rotate.
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (i != 0 && k != i % ids.size()) continue;
      const bool cached = (i == 0 ? k : i) % 2 == 1;
      serve::render_solve_ok_body(body, ids[k].second, cached, l.mapped);
      corpus += "body " + l.label + " id=" + ids[k].first +
                (cached ? " cached" : " fresh") + "\n" + body + "\n";
    }
  }
  return corpus;
}

TEST(WireCorpus, ResponsesAndStoreValuesAreByteIdentical) {
  const std::string path =
      std::string(CNASH_SOURCE_DIR) + "/tests/data/wire_corpus.txt";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  if (in) expected << in.rdbuf();

  const std::string actual = render_corpus();
  if (actual != expected.str()) {
    const fs::path out =
        fs::path(::testing::TempDir()) / "wire_corpus.actual.txt";
    std::ofstream(out, std::ios::binary) << actual;
    FAIL() << (in ? "wire bytes drifted from " : "missing golden corpus ")
           << path << "; this build's bytes are in " << out;
  }
}

TEST(WireCorpus, StoreValuesDecodeToTheSameBytes) {
  // The store-hit path decodes a value and the replay re-encodes it: that
  // round trip must be the identity on every corpus report.
  for (const Labeled& l : corpus_reports()) {
    const std::string value = core::report_to_json(l.report).dump();
    const core::SolveReport back =
        core::report_from_json(util::Json::parse(value));
    EXPECT_EQ(core::report_to_json(back).dump(), value) << l.label;
  }
}

TEST(WireCorpus, SplicedStoreValuesEqualRenderedBodies) {
  // Hits are answered from the store value without decoding it: the
  // envelope and the caller's name are spliced around it and, for a caller
  // in another action order, its strategy tokens are moved. That must give
  // the rendered body's bytes for every corpus report, order and id kind.
  for (const Labeled& l : corpus_reports()) {
    std::string value;
    core::append_report_json(value, l.report);
    serve::ReportMapping identity;
    identity.row_perm.resize(l.report.samples.front().p.size());
    identity.col_perm.resize(l.report.samples.front().q.size());
    std::iota(identity.row_perm.begin(), identity.row_perm.end(), 0u);
    std::iota(identity.col_perm.begin(), identity.col_perm.end(), 0u);
    identity.original_name = "wire \"name\" \\ \x01";
    serve::ReportMapping reversed = identity;
    std::reverse(reversed.row_perm.begin(), reversed.row_perm.end());
    std::reverse(reversed.col_perm.begin(), reversed.col_perm.end());
    for (const serve::ReportMapping& mapping : {identity, reversed})
      for (const auto& [label, id] : corpus_ids()) {
        std::string expected, spliced;
        serve::render_solve_ok_body(expected, id, true,
                                    serve::map_to_original(mapping, l.report));
        serve::render_solve_ok_spliced(spliced, id, true, value, mapping);
        EXPECT_EQ(spliced, expected) << l.label << " id=" << label;
      }
  }
}

}  // namespace
}  // namespace cnash
