// JsonWriter -> parse_json round-trip: the manifests' values, read back.
// Documents are serialized by core::JsonWriter and parsed by the tests'
// strict reader (json_value.hpp), so every value class the manifests
// contain — exact u64/i64 integers, 17-significant-digit doubles,
// escaped strings, the null encoding of non-finite doubles — must
// survive the trip bit-for-bit. The other tests read manifests through
// the same parser, so its strictness (one document, fully consumed,
// bounded depth) is pinned here too.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/json_writer.hpp"
#include "json_value.hpp"

using namespace eblnet;
using core::JsonWriter;
using eblnet::testing::JsonValue;
using eblnet::testing::parse_json;

namespace {

/// Bit-exact double comparison (distinguishes -0.0 from 0.0; NaN == NaN).
bool same_bits(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  return ba == bb;
}

/// Render one double the way the writer does and parse it back.
double through(double v) {
  std::ostringstream ss;
  JsonWriter w{ss};
  w.begin_array();
  w.value(v);
  w.end_array();
  const auto doc = parse_json(ss.str());
  EXPECT_TRUE(doc && doc->is_array() && doc->as_array().size() == 1) << ss.str();
  return doc->as_array().front().as_double();
}

std::string through_string(const std::string& s) {
  std::ostringstream ss;
  JsonWriter w{ss};
  w.begin_array();
  w.value(std::string_view{s});
  w.end_array();
  const auto doc = parse_json(ss.str());
  EXPECT_TRUE(doc && doc->is_array() && doc->as_array().size() == 1) << ss.str();
  return doc->as_array().front().as_string();
}

}  // namespace

TEST(JsonRoundTripTest, FiniteDoublesRoundTripBitExactly) {
  const std::vector<double> cases{
      0.0,
      1.0,
      0.1,
      1.0 / 3.0,
      2.0 / 3.0,
      1e-5,
      1.7976931348623157e308,                    // max finite
      2.2250738585072014e-308,                   // min normal
      5e-324,                                    // smallest denormal
      123456789.12345679,                        // > 2^26, fractional
      3.141592653589793,
      -2.5e-10,
      std::nextafter(1.0, 2.0),                  // 1 + ulp
  };
  for (const double v : cases) {
    EXPECT_TRUE(same_bits(through(v), v)) << "double " << v << " did not round-trip";
    EXPECT_TRUE(same_bits(through(-v), -v)) << "double " << -v << " did not round-trip";
  }
}

TEST(JsonRoundTripTest, NegativeZeroKeepsItsSign) {
  const double v = through(-0.0);
  EXPECT_TRUE(std::signbit(v));
  EXPECT_EQ(v, 0.0);
}

TEST(JsonRoundTripTest, NonFiniteDoublesBecomeNullAndReadBackAsNaN) {
  // Writer policy: NaN/Inf render as null. Parser policy: null reads
  // back as NaN through as_double(). (Infinities collapse to NaN — no
  // manifest field distinguishes them.)
  for (const double v : {std::nan(""), std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::ostringstream ss;
    JsonWriter w{ss};
    w.begin_array();
    w.value(v);
    w.end_array();
    EXPECT_EQ(ss.str(), "[\n  null\n]");
    const auto doc = parse_json(ss.str());
    ASSERT_TRUE(doc);
    EXPECT_TRUE(doc->as_array().front().is_null());
    EXPECT_TRUE(std::isnan(doc->as_array().front().as_double()));
  }
}

TEST(JsonRoundTripTest, IntegersKeepExactIdentity) {
  std::ostringstream ss;
  JsonWriter w{ss};
  w.begin_object();
  w.field("umax", std::numeric_limits<std::uint64_t>::max());  // 2^64 - 1
  w.field("u2_63", std::uint64_t{1} << 63);                    // above i64 range
  w.field("imin", std::numeric_limits<std::int64_t>::min());
  w.field("imax", std::numeric_limits<std::int64_t>::max());
  w.field("zero", std::uint64_t{0});
  w.end_object();
  const auto doc = parse_json(ss.str());
  ASSERT_TRUE(doc);

  EXPECT_EQ(doc->find("umax")->kind(), JsonValue::Kind::kU64);
  EXPECT_EQ(doc->find("umax")->as_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(doc->find("u2_63")->as_u64(), std::uint64_t{1} << 63);
  EXPECT_EQ(doc->find("imin")->kind(), JsonValue::Kind::kI64);
  EXPECT_EQ(doc->find("imin")->as_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(doc->find("imax")->as_i64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(doc->find("zero")->as_u64(), 0u);
}

TEST(JsonRoundTripTest, OutOfRangeNumbersSaturate) {
  // Numbers past the integer range parse as doubles; casting such a
  // double to an integer type is undefined, so the views saturate.
  const auto doc = parse_json(
      R"({"huge": 1e300, "tiny": -1e300, "past_u64": 18446744073709551616, "neg": -2.5})");
  ASSERT_TRUE(doc);
  EXPECT_EQ(doc->find("huge")->as_i64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(doc->find("huge")->as_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(doc->find("tiny")->as_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(doc->find("tiny")->as_u64(), 0u);
  EXPECT_EQ(doc->find("past_u64")->kind(), JsonValue::Kind::kDouble);
  EXPECT_EQ(doc->find("past_u64")->as_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(doc->find("neg")->as_u64(), 0u);
  EXPECT_EQ(doc->find("neg")->as_i64(), -2);
  EXPECT_EQ(JsonValue::number(std::numeric_limits<double>::quiet_NaN()).as_u64(), 0u);
  EXPECT_EQ(JsonValue::number(std::numeric_limits<double>::quiet_NaN()).as_i64(), 0);
}

TEST(JsonRoundTripTest, StringsWithEscapesRoundTrip) {
  const std::vector<std::string> cases{
      "plain",
      "quote\"backslash\\slash/",
      "line\nbreak\ttab\rret",
      std::string{"embedded\x01control\x1f"},
      std::string{"nul\0inside", 10},
      "trailing backslash in data \\\\",
      "",
  };
  for (const std::string& s : cases) EXPECT_EQ(through_string(s), s);
}

TEST(JsonRoundTripTest, UnicodeEscapesDecodeToUtf8) {
  const auto doc = parse_json(R"(["caf\u00e9", "\u0041", "snow\u2603"])");
  ASSERT_TRUE(doc);
  EXPECT_EQ(doc->as_array()[0].as_string(), "caf\xc3\xa9");
  EXPECT_EQ(doc->as_array()[1].as_string(), "A");
  EXPECT_EQ(doc->as_array()[2].as_string(), "snow\xe2\x98\x83");
}

TEST(JsonRoundTripTest, ObjectsPreserveInsertionOrderAndLookup) {
  const auto doc = parse_json(R"({"b": 1, "a": {"nested": [true, false, null]}})");
  ASSERT_TRUE(doc);
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->as_object()[0].first, "b");
  EXPECT_EQ(doc->as_object()[1].first, "a");
  const JsonValue* nested = doc->find("a")->find("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_EQ(nested->as_array().size(), 3u);
  EXPECT_TRUE(nested->as_array()[0].as_bool());
  EXPECT_TRUE(nested->as_array()[2].is_null());
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonRoundTripTest, ParserRejectsMalformedDocuments) {
  const std::vector<const char*> bad{
      "",
      "{",
      "[1, 2",
      "{\"a\": }",
      "[1,]",
      "01",               // leading zero
      "+1",               // stray sign
      "1.2.3",
      "nul",
      "\"unterminated",
      "\"bad \\x escape\"",
      "\"raw \x01 control\"",  // control chars must be escaped
      "[1] trailing",
      "{} {}",
      "\"lone surrogate \\ud800\"",
      "[1e999]",          // overflows to infinity — writer never emits it
  };
  for (const char* text : bad)
    EXPECT_FALSE(parse_json(text)) << "accepted malformed: " << text;
}

TEST(JsonRoundTripTest, DepthLimitBoundsRecursion) {
  const auto nest = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(parse_json(nest(64)));
  EXPECT_FALSE(parse_json(nest(65)));
}

TEST(JsonRoundTripTest, WriterOutputReparsesAfterRerender) {
  // Build a writer document mixing every scalar class, parse it, and
  // check the parsed values drive an identical re-render: nothing the
  // writer emits loses a bit on the way back.
  const auto render = [](double d, std::uint64_t u, std::int64_t i, const std::string& s) {
    std::ostringstream ss;
    JsonWriter w{ss};
    w.begin_object();
    w.field("d", d);
    w.field("u", u);
    w.field("i", i);
    w.field("s", std::string_view{s});
    w.field("flag", true);
    w.end_object();
    return ss.str();
  };
  const std::string once = render(0.1, 18446744073709551615ull, -42, "x\ny");
  const auto doc = parse_json(once);
  ASSERT_TRUE(doc);
  const std::string twice =
      render(doc->find("d")->as_double(), doc->find("u")->as_u64(), doc->find("i")->as_i64(),
             doc->find("s")->as_string());
  EXPECT_EQ(once, twice);
}
