// Unit tests for src/util: timers, deterministic RNG, text helpers, and
// the minimal JSON value type behind the symcolor_serve protocol.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>

#include "util/json.h"
#include "util/rng.h"
#include "util/text.h"
#include "util/timer.h"

namespace symcolor {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
  EXPECT_LT(t.seconds(), 5.0);
}

TEST(Timer, ResetRestartsFromZero) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  t.reset();
  EXPECT_LT(t.seconds(), 0.01);
}

TEST(Timer, MillisecondsMatchSeconds) {
  Timer t;
  const double s = t.seconds();
  EXPECT_NEAR(t.milliseconds(), s * 1000.0, 50.0);
}

TEST(Deadline, DefaultIsUnlimited) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining()));
}

TEST(Deadline, ZeroBudgetIsUnlimited) {
  Deadline d(0.0);
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
}

TEST(Deadline, ExpiresAfterBudget) {
  Deadline d(0.01);
  EXPECT_FALSE(d.unlimited());
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), 0.0);
}

TEST(Deadline, RemainingIsPositiveBeforeExpiry) {
  Deadline d(100.0);
  EXPECT_GT(d.remaining(), 90.0);
  EXPECT_FALSE(d.expired());
}

TEST(Deadline, NegativeBudgetIsUnlimited) {
  // The "<= 0 means unlimited" convention covers negatives, not just 0.
  Deadline d(-5.0);
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining()));
}

TEST(Deadline, CopyPreservesTheOriginalClock) {
  // A copy shares the start instant — copying must not extend a budget.
  Deadline d(0.01);
  Deadline copy = d;
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(copy.expired());
  EXPECT_EQ(copy.remaining(), 0.0);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 500 draws
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(13);
  double total = 0.0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) total += rng.uniform();
  EXPECT_NEAR(total / samples, 0.5, 0.02);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(17);
  const auto p = rng.permutation(50);
  std::set<int> values(p.begin(), p.end());
  EXPECT_EQ(values.size(), 50u);
  EXPECT_EQ(*values.begin(), 0);
  EXPECT_EQ(*values.rbegin(), 49);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto copy = v;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Text, SplitTokensBasic) {
  const auto tokens = split_tokens("a bb  ccc");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "bb");
  EXPECT_EQ(tokens[2], "ccc");
}

TEST(Text, SplitTokensEmptyAndWhitespaceOnly) {
  EXPECT_TRUE(split_tokens("").empty());
  EXPECT_TRUE(split_tokens("  \t \n ").empty());
}

TEST(Text, SplitTokensCustomDelims) {
  const auto tokens = split_tokens("a,b;;c", ",;");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[2], "c");
}

TEST(Text, TrimBothEnds) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Text, StartsWith) {
  EXPECT_TRUE(starts_with("p edge 5 4", "p edge"));
  EXPECT_FALSE(starts_with("p", "p edge"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(Text, FormatSecondsPrecisionBands) {
  EXPECT_EQ(format_seconds(0.014), "0.01");
  EXPECT_EQ(format_seconds(9.876), "9.88");
  EXPECT_EQ(format_seconds(42.345), "42.3");
  EXPECT_EQ(format_seconds(123.9), "124");
}

TEST(Text, FormatSecondsTimeout) {
  EXPECT_EQ(format_seconds(1000.0, true), "T/O");
}

TEST(Text, FormatSecondsClampsNegative) {
  EXPECT_EQ(format_seconds(-1.0), "0.00");
}

TEST(Text, FormatPow10SmallExact) {
  EXPECT_EQ(format_pow10(0.0), "1");
  EXPECT_EQ(format_pow10(std::log10(20.0)), "20");
}

TEST(Text, FormatPow10LargeScientific) {
  const std::string s = format_pow10(168.04);
  EXPECT_NE(s.find("e+168"), std::string::npos);
}

// ---- Json (the symcolor_serve wire format) ----

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool(true));
  EXPECT_EQ(Json::parse("-42")->as_int(), -42);
  EXPECT_TRUE(Json::parse("42")->is_int());
  EXPECT_NEAR(Json::parse("2.5e1")->as_double(), 25.0, 1e-9);
  EXPECT_FALSE(Json::parse("2.5e1")->is_int());
  EXPECT_EQ(Json::parse("\"hi\\nthere\"")->as_string(), "hi\nthere");
}

TEST(Json, ParsesNestedStructures) {
  const auto v =
      Json::parse(R"({"op":"solve","k":5,"clauses":[[1,-2],[2]],"f":true})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->get_string("op"), "solve");
  EXPECT_EQ(v->get_int("k"), 5);
  EXPECT_TRUE(v->get_bool("f"));
  const Json* clauses = v->find("clauses");
  ASSERT_NE(clauses, nullptr);
  ASSERT_EQ(clauses->as_array().size(), 2u);
  EXPECT_EQ(clauses->as_array()[0].as_array()[1].as_int(), -2);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("tru").has_value());
  EXPECT_FALSE(Json::parse("1 2").has_value());  // trailing garbage
  EXPECT_FALSE(Json::parse("nan").has_value());
}

TEST(Json, AsIntFallsBackForDoublesOutsideInt64) {
  // Doubles inside the int64 range truncate toward zero.
  EXPECT_EQ(Json::parse("2.9")->as_int(), 2);
  EXPECT_EQ(Json::parse("-2.9")->as_int(), -2);
  EXPECT_EQ(Json(-0x1p63).as_int(7), std::numeric_limits<std::int64_t>::min());
  // Everything else, whose conversion would be undefined, takes the
  // fallback: huge exponents, an integer literal past int64 (parsed as a
  // double), the first double past the range, NaN and infinities.
  EXPECT_EQ(Json::parse("1e300")->as_int(7), 7);
  EXPECT_EQ(Json::parse("-1e300")->as_int(7), 7);
  EXPECT_EQ(Json::parse("99999999999999999999")->as_int(7), 7);
  EXPECT_EQ(Json(0x1p63).as_int(7), 7);
  EXPECT_EQ(Json(std::nan("")).as_int(7), 7);
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).as_int(7), 7);
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).as_int(7), 7);
  // get_int() reads an out-of-range number as 0, which every serve range
  // check rejects.
  const auto msg = Json::parse(R"({"threads":1e300,"k":4294967301})");
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->get_int("threads", 1), 0);
  EXPECT_EQ(msg->get_int("k", 8), 4294967301LL);
}

TEST(Json, DepthCapStopsHostileNesting) {
  std::string bomb;
  for (int i = 0; i < 2000; ++i) bomb += '[';
  EXPECT_FALSE(Json::parse(bomb).has_value());
  // A comfortably-nested document still parses.
  EXPECT_TRUE(Json::parse("[[[[[[[[[[1]]]]]]]]]]").has_value());
}

TEST(Json, DumpIsDeterministicAndRoundTrips) {
  Json obj;
  obj["b"] = 2;
  obj["a"] = std::string("x\"y");
  obj["c"] = Json::Array{Json(1), Json(true), Json(nullptr)};
  const std::string text = obj.dump();
  EXPECT_EQ(text, R"({"a":"x\"y","b":2,"c":[1,true,null]})");
  const auto back = Json::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), text);
}

TEST(Json, ControlCharactersEscapeOnDump) {
  // ("a\x01b" would parse as {'a', 0x1b}: hex escapes are greedy.)
  const std::string raw = std::string("a") + '\x01' + 'b';
  const Json v(raw);
  EXPECT_EQ(v.dump(), "\"a\\u0001b\"");
  EXPECT_EQ(Json::parse(v.dump())->as_string(), raw);
}

}  // namespace
}  // namespace symcolor
