// Golden hardware-sa corpus: the exact report bytes (core::append_report_json)
// the "hardware-sa" backend produces for a matrix of hardware configurations,
// games and interval counts. tests/data/hardware_sa_corpus.txt pins them, so
// any change to the hardware datapath model — device sampling, delta kernels,
// refresh cadence, WTA / ADC draw order, the latency model behind
// modeled_time_s — shows up as a byte diff.
//
// The matrix crosses 11 TwoPhaseConfig variants (default, full re-reads, MLC
// 4 and 8 levels with a cells-per-element override, 6-bit ADC, noiseless
// ADC, ideal array, exact device sampling, stuck-on/off cells, value scale 2
// and a 7-commit refresh interval) with four games (battle of sexes, bird, a
// 5×4 and a 3×6 random integer game) at I ∈ {8, 12, 16}, plus one
// "resilient" report whose hardware-sa primary ignores tile_rate 0.5.
// wall_clock_s, the one scheduling-dependent field, is pinned.
//
// Corpus format: one header line with the case label followed by one line of
// report JSON. On a mismatch the test writes the bytes it produced to gtest's
// temp dir and names the file, so an intentional model change is regenerated
// from that file.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/report_json.hpp"
#include "game/games.hpp"
#include "game/random_games.hpp"
#include "util/rng.hpp"

namespace cnash {
namespace {

namespace fs = std::filesystem;

constexpr double kPinnedWallClock = 0.0123456789;

struct Variant {
  const char* label;
  core::TwoPhaseConfig config;
};

std::vector<Variant> variants() {
  std::vector<Variant> v;
  auto add = [&](const char* label, auto&& tweak) {
    core::TwoPhaseConfig cfg;
    tweak(cfg);
    v.push_back({label, cfg});
  };
  add("default", [](core::TwoPhaseConfig&) {});
  add("full-read", [](core::TwoPhaseConfig& c) { c.incremental = false; });
  add("mlc4", [](core::TwoPhaseConfig& c) {
    c.levels_per_cell = 4;
    c.cells_per_element = 3;
  });
  add("mlc8", [](core::TwoPhaseConfig& c) {
    c.levels_per_cell = 8;
    c.cells_per_element = 2;
  });
  add("adc6", [](core::TwoPhaseConfig& c) { c.adc_bits = 6; });
  add("adc-noiseless", [](core::TwoPhaseConfig& c) { c.adc_noise_rel = 0.0; });
  add("ideal-array", [](core::TwoPhaseConfig& c) { c.array.ideal = true; });
  add("exact-sampling",
      [](core::TwoPhaseConfig& c) { c.array.fast_sampling = false; });
  add("stuck-cells", [](core::TwoPhaseConfig& c) {
    c.array.stuck_off_rate = 0.03;
    c.array.stuck_on_rate = 0.02;
  });
  add("value-scale2", [](core::TwoPhaseConfig& c) { c.value_scale = 2.0; });
  add("refresh7", [](core::TwoPhaseConfig& c) { c.refresh_interval = 7; });
  return v;
}

std::vector<game::BimatrixGame> games() {
  util::Rng rng(20241017);
  std::vector<game::BimatrixGame> g{game::battle_of_sexes(), game::bird_game()};
  g.push_back(game::random_integer_game(5, 4, rng));
  g.push_back(game::random_integer_game(3, 6, rng));
  return g;
}

struct Case {
  std::string label;
  core::SolveRequest request;
};

std::vector<Case> corpus_cases() {
  std::vector<Case> cases;
  const std::vector<game::BimatrixGame> gs = games();
  std::uint64_t seed = 1;
  for (const Variant& v : variants()) {
    for (std::size_t gi = 0; gi < gs.size(); ++gi) {
      for (const std::uint32_t intervals : {8u, 12u, 16u}) {
        core::SolveRequest r(gs[gi]);
        r.backend = "hardware-sa";
        r.runs = 2;
        r.seed = seed++;
        r.intervals = intervals;
        r.sa.iterations = 1500;
        r.hardware = v.config;
        cases.push_back({std::string(v.label) + " game=" + std::to_string(gi) +
                             " I=" + std::to_string(intervals),
                         std::move(r)});
      }
    }
  }

  // The resilient wrapper over hardware-sa: tile faults are a
  // hardware-sa-tiled concept, so tile_rate must leave every sample on the
  // primary path.
  core::SolveRequest res(game::bird_game());
  res.backend = "resilient";
  res.resilient_primary = "hardware-sa";
  res.runs = 4;
  res.seed = 99;
  res.sa.iterations = 1500;
  res.fault.seed = 7;
  res.fault.tile_failure_rate = 0.5;
  cases.push_back({"resilient primary=hardware-sa tile_rate=0.5",
                   std::move(res)});
  return cases;
}

std::string render_corpus() {
  std::string corpus;
  for (const Case& c : corpus_cases()) {
    core::SolveReport report =
        core::SolverRegistry::global().at(c.request.backend).solve(c.request);
    report.wall_clock_s = kPinnedWallClock;
    corpus += c.label + "\n";
    core::append_report_json(corpus, report);
    corpus += "\n";
  }
  return corpus;
}

TEST(HardwareSaCorpus, ReportsAreByteIdentical) {
  const std::string path =
      std::string(CNASH_SOURCE_DIR) + "/tests/data/hardware_sa_corpus.txt";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  if (in) expected << in.rdbuf();

  const std::string actual = render_corpus();
  if (actual != expected.str()) {
    const fs::path out =
        fs::path(::testing::TempDir()) / "hardware_sa_corpus.actual.txt";
    std::ofstream(out, std::ios::binary) << actual;
    FAIL() << (in ? "hardware-sa bytes drifted from "
                  : "missing golden corpus ")
           << path << "; this build's bytes are in " << out;
  }
}

}  // namespace
}  // namespace cnash
