// SolveReport ↔ JSON (core/report_json.hpp) and the util::Json document type
// underneath it. Contracts:
//   * round trip is lossless — every double returns bit-identical (including
//     NaN regrets / best objectives via the null mapping) and quantized
//     profiles survive;
//   * the serialized form is stable — a golden file in tests/data/ catches
//     accidental schema or formatting drift (the serving cache's
//     byte-identical-replay guarantee rides on deterministic rendering);
//   * the parser rejects malformed documents with exact offsets and the
//     report deserializer rejects schema violations.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/report_json.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "util/json.hpp"

namespace cnash::core {
namespace {

bool same_bits(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  // All NaNs compare equal here: JSON null cannot carry a payload, so the
  // round trip guarantees "a NaN", not a specific one.
  if (std::isnan(a) && std::isnan(b)) return true;
  return ba == bb;
}

/// The hand-built report behind the golden file: dyadic values (exact in
/// decimal), one sample with a quantized profile, one invalid sample with a
/// NaN regret.
SolveReport golden_report() {
  SolveReport report;
  report.backend = "hardware-sa";
  report.game_name = "golden game";
  SolveSample good;
  good.p = {0.25, 0.75};
  good.q = {1.0, 0.0};
  good.objective = 0.125;
  good.valid = true;
  good.is_nash = true;
  good.regret = 0.0078125;
  good.fallback = true;  // exercises the resilient-path sample flag
  good.profile = game::QuantizedProfile{
      game::QuantizedStrategy(std::vector<std::uint32_t>{1, 3}, 4),
      game::QuantizedStrategy(std::vector<std::uint32_t>{4, 0}, 4)};
  SolveSample bad;
  bad.p = {0.5, 0.5};
  bad.q = {0.5, 0.5};
  bad.objective = 1.5;
  bad.valid = false;
  bad.is_nash = false;
  bad.regret = std::numeric_limits<double>::quiet_NaN();
  report.samples = {good, bad};
  report.nash_count = 1;
  report.valid_count = 1;
  report.best_objective = 0.125;
  report.modeled_time_s = 1.25e-06;
  report.wall_clock_s = 0.03125;
  report.degraded = true;  // exercises the robustness accounting fields
  report.units_total = 4;
  report.units_completed = 3;
  report.fallback_count = 1;
  return report;
}

void expect_reports_equal(const SolveReport& a, const SolveReport& b) {
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.game_name, b.game_name);
  EXPECT_EQ(a.nash_count, b.nash_count);
  EXPECT_EQ(a.valid_count, b.valid_count);
  EXPECT_TRUE(same_bits(a.best_objective, b.best_objective));
  EXPECT_TRUE(same_bits(a.modeled_time_s, b.modeled_time_s));
  EXPECT_TRUE(same_bits(a.wall_clock_s, b.wall_clock_s));
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.units_total, b.units_total);
  EXPECT_EQ(a.units_completed, b.units_completed);
  EXPECT_EQ(a.fallback_count, b.fallback_count);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const SolveSample& sa = a.samples[i];
    const SolveSample& sb = b.samples[i];
    ASSERT_EQ(sa.p.size(), sb.p.size());
    for (std::size_t j = 0; j < sa.p.size(); ++j)
      EXPECT_TRUE(same_bits(sa.p[j], sb.p[j])) << "sample " << i << " p " << j;
    ASSERT_EQ(sa.q.size(), sb.q.size());
    for (std::size_t j = 0; j < sa.q.size(); ++j)
      EXPECT_TRUE(same_bits(sa.q[j], sb.q[j])) << "sample " << i << " q " << j;
    EXPECT_TRUE(same_bits(sa.objective, sb.objective)) << "sample " << i;
    EXPECT_EQ(sa.valid, sb.valid) << "sample " << i;
    EXPECT_EQ(sa.is_nash, sb.is_nash) << "sample " << i;
    EXPECT_TRUE(same_bits(sa.regret, sb.regret)) << "sample " << i;
    EXPECT_EQ(sa.fallback, sb.fallback) << "sample " << i;
    EXPECT_EQ(sa.profile.has_value(), sb.profile.has_value()) << "sample " << i;
    if (sa.profile && sb.profile) {
      EXPECT_EQ(*sa.profile, *sb.profile);
    }
  }
}

TEST(ReportJson, RoundTripIsLossless) {
  const SolveReport report = golden_report();
  const std::string wire = report_to_json(report).dump();
  const SolveReport back = report_from_json(util::Json::parse(wire));
  expect_reports_equal(report, back);
  // Re-serialization is byte-identical (deterministic rendering).
  EXPECT_EQ(report_to_json(back).dump(), wire);
}

TEST(ReportJson, RoundTripsARealSolverReport) {
  SolveRequest req(game::battle_of_sexes());
  req.backend = "hardware-sa";
  req.runs = 4;
  req.seed = 7;
  req.sa.iterations = 400;
  const SolveReport report =
      SolverRegistry::global().at("hardware-sa").solve(req);
  ASSERT_EQ(report.samples.size(), 4u);
  ASSERT_TRUE(report.samples[0].profile.has_value());

  const SolveReport back =
      report_from_json(util::Json::parse(report_to_json(report).dump()));
  expect_reports_equal(report, back);
  // The stable dedup keys (quantized profiles) survive the round trip.
  for (std::size_t i = 0; i < report.samples.size(); ++i)
    EXPECT_EQ(report.samples[i].key(), back.samples[i].key());
}

TEST(ReportJson, GoldenFileStaysStable) {
  const std::string path =
      std::string(CNASH_SOURCE_DIR) + "/tests/data/solve_report_golden.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream text;
  text << in.rdbuf();

  // Serialize the hand-built report: must match the checked-in bytes.
  EXPECT_EQ(report_to_json(golden_report()).pretty() + "\n", text.str())
      << "solve_report JSON schema or formatting drifted; if intentional, "
         "regenerate tests/data/solve_report_golden.json";

  // And the golden bytes parse back into the same report.
  expect_reports_equal(golden_report(),
                       report_from_json(util::Json::parse(text.str())));
}

TEST(ReportJson, RejectsSchemaViolations) {
  const SolveReport report = golden_report();
  util::Json json = report_to_json(report);

  util::Json no_backend = util::Json::parse(json.dump());
  no_backend.set("backend", util::Json::null());
  EXPECT_THROW(report_from_json(no_backend), util::JsonError);

  // Profile ticks that do not sum to the interval count.
  util::Json bad_profile = util::Json::parse(
      R"({"backend":"b","game":"g","nash_count":0,"valid_count":0,
          "best_objective":0,"modeled_time_s":0,"wall_clock_s":0,
          "samples":[{"p":[1.0],"q":[1.0],"objective":0,"valid":true,
                      "is_nash":false,"regret":0,
                      "profile":{"intervals":4,"p":[1],"q":[4]}}]})");
  EXPECT_THROW(report_from_json(bad_profile), util::JsonError);
}

TEST(ReportJson, RejectsCountsOutOfRangeBeforeCasting) {
  // Casting a negative, NaN (null) or huge double to an unsigned integer is
  // undefined behaviour; every integer field is range-checked first.
  const std::string head =
      R"({"backend":"b","game":"g","best_objective":0,"modeled_time_s":0,)"
      R"("wall_clock_s":0,)";
  const std::string sample =
      R"({"p":[1.0],"q":[1.0],"objective":0,"valid":true,"is_nash":false,)"
      R"("regret":0)";
  const std::string profile = R"(,"profile":{"intervals":4,"p":[4],"q":[4]}})";
  auto report = [&](const std::string& counts, const std::string& s) {
    return head + counts + R"(,"samples":[)" + s + "]}";
  };
  const std::string ok_counts = R"("nash_count":0,"valid_count":0)";
  const std::string ok_sample = sample + profile;
  // The well-formed baseline parses.
  EXPECT_NO_THROW(
      report_from_json(util::Json::parse(report(ok_counts, ok_sample))));

  const std::vector<std::string> bad = {
      // The four crafted documents: -1, null (NaN), 1e20, and a tick count.
      report(R"("nash_count":-1,"valid_count":0)", ok_sample),
      report(R"("nash_count":0,"valid_count":null)", ok_sample),
      report(ok_counts + R"(,"units_total":1e20)", ok_sample),
      report(ok_counts,
             sample + R"(,"profile":{"intervals":4,"p":[1e20],"q":[4]}})"),
      // The other integer fields.
      report(ok_counts + R"(,"units_completed":-1)", ok_sample),
      report(ok_counts + R"(,"fallback_count":null)", ok_sample),
      report(ok_counts + R"(,"re_swap_proposals":1e20)", ok_sample),
      report(ok_counts + R"(,"re_swap_accepts":-1)", ok_sample),
      report(ok_counts, sample + R"(,"swap_proposals":-1)" + profile),
      report(ok_counts, sample + R"(,"swap_accepts":1e20)" + profile),
      report(ok_counts,
             sample + R"(,"profile":{"intervals":1e20,"p":[4],"q":[4]}})"),
      report(ok_counts,
             sample + R"(,"profile":{"intervals":null,"p":[4],"q":[4]}})"),
      report(ok_counts,
             sample + R"(,"profile":{"intervals":4,"p":[4],"q":[null]}})"),
      report(ok_counts,
             sample + R"(,"profile":{"intervals":4,"p":[-1],"q":[4]}})"),
      report(R"("nash_count":1.5,"valid_count":0)", ok_sample),
  };
  for (const std::string& text : bad)
    EXPECT_THROW(report_from_json(util::Json::parse(text)), util::JsonError)
        << text;
}

TEST(Json, ParserHandlesEscapesAndNesting) {
  const util::Json v = util::Json::parse(
      R"({"s":"a\"b\\c\ndAé","arr":[1,-2.5e3,true,false,null],"o":{}})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\nd" "A" "\xc3\xa9");
  EXPECT_EQ(v.at("arr").size(), 5u);
  EXPECT_EQ(v.at("arr").at(std::size_t{1}).as_number(), -2500.0);
  EXPECT_TRUE(v.at("arr").at(std::size_t{4}).is_null());
  EXPECT_TRUE(v.at("o").is_object());
  // Dump → parse → dump is a fixpoint.
  EXPECT_EQ(util::Json::parse(v.dump()).dump(), v.dump());
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(util::Json::parse(""), util::JsonError);
  EXPECT_THROW(util::Json::parse("{"), util::JsonError);
  EXPECT_THROW(util::Json::parse("{\"a\":1,}"), util::JsonError);
  EXPECT_THROW(util::Json::parse("[1 2]"), util::JsonError);
  EXPECT_THROW(util::Json::parse("nul"), util::JsonError);
  EXPECT_THROW(util::Json::parse("1.2.3"), util::JsonError);
  EXPECT_THROW(util::Json::parse("\"unterminated"), util::JsonError);
  EXPECT_THROW(util::Json::parse("{} trailing"), util::JsonError);
  try {
    util::Json::parse("[true, xyz]");
    FAIL();
  } catch (const util::JsonError& e) {
    EXPECT_EQ(e.offset(), 7u);  // points at the bad token
  }
  // Depth bomb: fails cleanly instead of blowing the stack.
  EXPECT_THROW(util::Json::parse(std::string(5000, '[')), util::JsonError);
}

TEST(Json, NumbersRenderWithRoundTripPrecision) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, -0.0, 12345.0,
                         std::numeric_limits<double>::min()}) {
    const std::string text = util::Json::number(v).dump();
    EXPECT_TRUE(same_bits(util::Json::parse(text).as_number(), v)) << text;
  }
  EXPECT_EQ(util::Json::number(std::nan("")).dump(), "null");
  EXPECT_EQ(util::Json::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
}

}  // namespace
}  // namespace cnash::core
