// Tests for the JSON document model (writer + parser) and the golden
// comparator that the bench regression gate is built on.
#include "core/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/golden.h"
#include "core/rng.h"

namespace json = wild5g::json;
namespace golden = wild5g::golden;
using wild5g::Error;

namespace {

json::Value sample_document() {
  json::Value doc = json::Value::object();
  doc.set("bench", "fig99_example");
  doc.set("seed", 20210823);
  json::Value tolerance = json::Value::object();
  tolerance.set("rel", 1e-6);
  tolerance.set("abs", 1e-9);
  doc.set("tolerance", std::move(tolerance));
  json::Value tables = json::Value::array();
  json::Value table = json::Value::object();
  table.set("title", "example table");
  json::Value header = json::Value::array();
  header.push_back("setting");
  header.push_back("total");
  table.set("header", std::move(header));
  json::Value rows = json::Value::array();
  json::Value row = json::Value::array();
  row.push_back("SA only");
  row.push_back("13.0");
  rows.push_back(std::move(row));
  table.set("rows", std::move(rows));
  tables.push_back(std::move(table));
  doc.set("tables", std::move(tables));
  json::Value metrics = json::Value::object();
  metrics.set("stall_pct", 4.25);
  doc.set("metrics", std::move(metrics));
  return doc;
}

// Reference formatter: the plain shortest-round-trip search over %.*g
// precisions 1..17 that json::format_number must match byte for byte.
std::string oracle_format(double value) {
  char buffer[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

// Seeded random bit patterns (finite ones) plus uniform, integral,
// two-decimal and x1e-7 values, the shapes goldens and snapshots carry.
std::vector<double> random_doubles() {
  constexpr int kPerKind = 20000;
  wild5g::Rng rng(20261020);
  std::vector<double> out;
  while (out.size() < kPerKind) {
    const double v = std::bit_cast<double>(rng.uniform_int(
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()));
    if (std::isfinite(v)) out.push_back(v);
  }
  for (int i = 0; i < kPerKind; ++i) {
    out.push_back(rng.uniform(-1e6, 1e6));
    out.push_back(static_cast<double>(rng.uniform_int(-10000000, 10000000)));
    out.push_back(static_cast<double>(rng.uniform_int(-1000000, 1000000)) /
                  100.0);
    out.push_back(rng.uniform(0.0, 1000.0) * 1e-7);
  }
  return out;
}

// Every power of two of either sign with both neighbours, the integers
// around 2^53, signed zeros, the smallest subnormal, DBL_MIN and DBL_MAX.
std::vector<double> edge_doubles() {
  std::vector<double> out = {0.0,     -0.0,     5e-324,  -5e-324,
                             DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX};
  for (int exp = -1074; exp <= 1023; ++exp) {
    for (const double sign : {1.0, -1.0}) {
      const double p = sign * std::ldexp(1.0, exp);
      out.push_back(p);
      out.push_back(std::nextafter(p, 0.0));
      out.push_back(std::nextafter(p, sign * DBL_MAX));
    }
  }
  constexpr double kTwo53 = 9007199254740992.0;
  for (int k = -1000; k <= 1000; ++k) {
    out.push_back(kTwo53 + k);
    out.push_back(-(kTwo53 + k));
  }
  return out;
}

}  // namespace

TEST(Json, DumpParseRoundTripIsByteIdentical) {
  const std::string once = json::dump(sample_document());
  const std::string twice = json::dump(json::parse(once));
  EXPECT_EQ(once, twice);
}

TEST(Json, RoundTripPreservesValuesAndOrder) {
  const json::Value doc = json::parse(json::dump(sample_document()));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.as_object()[0].key, "bench");  // insertion order kept
  EXPECT_EQ(doc.find("bench")->as_string(), "fig99_example");
  EXPECT_DOUBLE_EQ(doc.find("seed")->as_number(), 20210823.0);
  EXPECT_DOUBLE_EQ(doc.find("metrics")->find("stall_pct")->as_number(), 4.25);
  const json::Value& table = doc.find("tables")->as_array().at(0);
  EXPECT_EQ(table.find("rows")->as_array()[0].as_array()[1].as_string(),
            "13.0");
}

TEST(Json, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(json::format_number(13.5), "13.5");
  EXPECT_EQ(json::format_number(0.0), "0");
  EXPECT_EQ(json::format_number(-3.0), "-3");
  EXPECT_EQ(json::format_number(1e-6), "1e-06");
  // 0.1 has no short exact decimal form; whatever is printed must parse
  // back to the identical double.
  const double value = 0.1;
  EXPECT_EQ(json::parse(json::format_number(value)).as_number(), value);
}

TEST(Json, FormatterMatchesFullPrecisionSearch) {
  for (const auto& set : {random_doubles(), edge_doubles()}) {
    for (const double v : set) {
      ASSERT_EQ(json::format_number(v), oracle_format(v))
          << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
    }
  }
}

TEST(Json, IntegralValuesKeepTheirExponentForm) {
  // %g switches to exponent form once the shortest digits drop trailing
  // zeros; snapshots and goldens hold these bytes, and snapshot sizes are
  // pinned, so they must not be "fixed" to plain integers.
  const std::pair<double, const char*> cases[] = {
      {10.0, "1e+01"},     {-20.0, "-2e+01"},   {100.0, "1e+02"},
      {120.0, "1.2e+02"},  {290.0, "2.9e+02"},  {720000.0, "7.2e+05"},
      {1000000.0, "1e+06"}, {7.0, "7"},         {123.0, "123"},
  };
  for (const auto& [value, text] : cases) {
    EXPECT_EQ(json::format_number(value), text) << "value " << value;
  }
}

TEST(Json, NonFiniteNumbersRejectedOnWrite) {
  EXPECT_THROW((void)json::format_number(std::nan("")), Error);
  EXPECT_THROW((void)json::format_number(1.0 / 0.0), Error);
  json::Value doc = json::Value::object();
  doc.set("bad", std::nan(""));
  EXPECT_THROW((void)json::dump(doc), Error);
}

TEST(Json, StringEscapingRoundTrips) {
  json::Value doc = json::Value::object();
  doc.set("s", "quote \" backslash \\ newline \n tab \t ctrl \x01 end");
  const json::Value back = json::parse(json::dump(doc));
  EXPECT_EQ(back.find("s")->as_string(), doc.find("s")->as_string());
}

TEST(Json, ParsesEscapesAndLiterals) {
  const json::Value v =
      json::parse(R"({"a": [true, false, null, -1.5e2], "u": "\u0041"})");
  EXPECT_TRUE(v.find("a")->as_array()[0].as_bool());
  EXPECT_FALSE(v.find("a")->as_array()[1].as_bool());
  EXPECT_TRUE(v.find("a")->as_array()[2].is_null());
  EXPECT_DOUBLE_EQ(v.find("a")->as_array()[3].as_number(), -150.0);
  EXPECT_EQ(v.find("u")->as_string(), "A");
}

TEST(Json, MalformedInputsRejectedCleanly) {
  const std::pair<const char*, const char*> cases[] = {
      // empty
      {"", "json: unexpected end of input (at byte 0)"},
      // truncated object
      {"{", "json: unexpected end of input (at byte 1)"},
      // truncated array
      {"[1, 2", "json: unexpected end of input (at byte 5)"},
      // unterminated string
      {"\"abc", "json: unterminated string (at byte 4)"},
      // missing value
      {"{\"a\": }", "json: invalid number (at byte 6)"},
      // would need a key after comma
      {"{\"a\": 1,}", "json: expected '\"' (at byte 8)"},
      // trailing garbage
      {"1.5 garbage", "json: trailing garbage after document (at byte 4)"},
      // not JSON literals
      {"nan", "json: invalid literal (at byte 0)"},
      {"inf", "json: invalid number (at byte 0)"},
      // sign without digits
      {"-", "json: invalid number (at byte 1)"},
      {"1.", "json: invalid number: missing fraction digits (at byte 2)"},
      {"2e", "json: invalid number: missing exponent digits (at byte 2)"},
      // overflows to infinity
      {"1e999", "json: number out of range (at byte 5)"},
      {"1e400", "json: number out of range (at byte 5)"},
      {"-1e400", "json: number out of range (at byte 6)"},
      {"1.7976931348623159e308", "json: number out of range (at byte 22)"},
      {"\"bad \\x escape\"", "json: invalid escape character (at byte 7)"},
      {"\"trunc \\u12\"", "json: truncated \\u escape (at byte 9)"},
      {"\"\\ud800\"",
       "json: surrogate \\u escapes are not supported (at byte 7)"},
      {"\"ctrl \x01\"",
       "json: unescaped control character in string (at byte 7)"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)json::parse(text);
      ADD_FAILURE() << "accepted input: " << text;
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), message) << "input: " << text;
    }
  }
}

TEST(Json, NumbersParseLikeStrtodAtTheRangeEdges) {
  // Underflow reads as a signed zero or a subnormal, as strtod gives it.
  const double pos_zero = json::parse("1e-400").as_number();
  EXPECT_EQ(pos_zero, 0.0);
  EXPECT_FALSE(std::signbit(pos_zero));
  const double neg_zero = json::parse("-1e-400").as_number();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  const double smallest = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(json::parse("4.9e-324").as_number(), smallest);
  EXPECT_EQ(json::parse("2.4703282292062328e-324").as_number(), smallest);
  EXPECT_EQ(json::parse("2.4703282292062327e-324").as_number(), 0.0);
  EXPECT_EQ(json::parse("1.7976931348623158e308").as_number(), DBL_MAX);
  EXPECT_EQ(json::parse("-0").as_number(), 0.0);
  EXPECT_TRUE(std::signbit(json::parse("-0").as_number()));
}

TEST(Json, NumberDumpParseDumpIsByteIdentical) {
  json::Value doc = json::Value::array();
  const std::vector<double> values = random_doubles();
  for (const double v : values) doc.push_back(v);
  for (const double v : edge_doubles()) doc.push_back(v);
  using Writer = std::string (*)(const json::Value&);
  for (const Writer write :
       {Writer{&json::dump}, Writer{&json::dump_compact}}) {
    const std::string once = write(doc);
    const json::Value back = json::parse(once);
    ASSERT_EQ(write(back), once);
    const auto& numbers = back.as_array();
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(numbers[i].as_number()),
                std::bit_cast<std::uint64_t>(values[i]))
          << "element " << i;
    }
  }
}

TEST(Json, DeeplyNestedInputRejected) {
  std::string text(1000, '[');
  EXPECT_THROW((void)json::parse(text), Error);
}

TEST(GoldenCompare, IdenticalDocumentsHaveNoDrift) {
  const json::Value doc = sample_document();
  EXPECT_TRUE(golden::compare(doc, doc).empty());
}

TEST(GoldenCompare, WithinToleranceMatches) {
  json::Value baseline = sample_document();
  json::Value fresh = sample_document();
  // stall_pct: tol is rel 1e-6 on 4.25.
  fresh.set("metrics", [] {
    json::Value m = json::Value::object();
    m.set("stall_pct", 4.25 * (1.0 + 5e-7));
    return m;
  }());
  EXPECT_TRUE(golden::compare(baseline, fresh).empty());
}

TEST(GoldenCompare, BeyondToleranceDriftsWithPath) {
  json::Value baseline = sample_document();
  json::Value fresh = sample_document();
  json::Value m = json::Value::object();
  m.set("stall_pct", 4.30);
  fresh.set("metrics", std::move(m));
  const auto drifts = golden::compare(baseline, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].path, "metrics.stall_pct");
  EXPECT_NE(drifts[0].message.find("4.25"), std::string::npos);
  EXPECT_NE(drifts[0].message.find("4.3"), std::string::npos);
}

TEST(GoldenCompare, NumericTableCellsCompareUnderTolerance) {
  const json::Value baseline = sample_document();
  // Rewrite the "13.0" cell beyond tolerance -> drift at the cell's path.
  const std::string text = json::dump(sample_document());
  const json::Value perturbed = json::parse(
      std::string(text).replace(text.find("\"13.0\""), 6, "\"13.2\""));
  const auto drifts = golden::compare(baseline, perturbed);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].path, "tables[0].rows[0][1]");
}

TEST(GoldenCompare, PerMetricToleranceOverride) {
  json::Value baseline = sample_document();
  json::Value overrides = json::Value::object();
  json::Value loose = json::Value::object();
  loose.set("rel", 0.5);
  overrides.set("stall_pct", std::move(loose));
  baseline.set("tolerances", std::move(overrides));
  json::Value fresh = sample_document();
  json::Value m = json::Value::object();
  m.set("stall_pct", 5.0);  // +17.6%: inside the 50% override
  fresh.set("metrics", std::move(m));
  // The fresh doc differs in the "tolerances" member too; only compare the
  // metric subtree outcome: expect exactly the structural drift for the
  // missing "tolerances" member, not a stall_pct drift.
  const auto drifts = golden::compare(baseline, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].path, "tolerances");
}

TEST(GoldenCompare, StructuralChangesAreDrifts) {
  const json::Value baseline = sample_document();
  // Dropped metric.
  json::Value fresh = sample_document();
  fresh.set("metrics", json::Value::object());
  auto drifts = golden::compare(baseline, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].path, "metrics.stall_pct");
  EXPECT_EQ(drifts[0].message, "missing in fresh run");
  // New unexpected metric.
  fresh = sample_document();
  json::Value m = json::Value::object();
  m.set("stall_pct", 4.25);
  m.set("surprise", 1.0);
  fresh.set("metrics", std::move(m));
  drifts = golden::compare(baseline, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].message, "unexpected new field in fresh run");
  // Type change.
  fresh = sample_document();
  fresh.set("bench", 7.0);
  drifts = golden::compare(baseline, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_NE(drifts[0].message.find("type changed"), std::string::npos);
}

TEST(GoldenCompare, ArrayLengthChangeIsDrift) {
  const json::Value baseline = sample_document();
  // Drop the only table row.
  json::Value fresh = sample_document();
  json::Value table = fresh.find("tables")->as_array()[0];
  table.set("rows", json::Value::array());
  json::Value tables = json::Value::array();
  tables.push_back(std::move(table));
  fresh.set("tables", std::move(tables));
  const auto drifts = golden::compare(baseline, fresh);
  ASSERT_FALSE(drifts.empty());
  EXPECT_EQ(drifts[0].path, "tables[0].rows");
  EXPECT_NE(drifts[0].message.find("length changed"), std::string::npos);
}

TEST(GoldenCompare, DocumentToleranceDefaultsApply)
{
  json::Value doc = json::Value::object();
  const auto tol = golden::document_tolerance(doc);
  EXPECT_DOUBLE_EQ(tol.rel, 1e-6);
  EXPECT_DOUBLE_EQ(tol.abs, 1e-9);
}
