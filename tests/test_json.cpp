#include "common/json.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace cloudalloc {
namespace {

TEST(Json, ConstructsScalars) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(1.5).is_number());
  EXPECT_TRUE(Json(3).is_number());
  EXPECT_TRUE(Json("x").is_string());
}

TEST(Json, AccessorsReturnValues) {
  EXPECT_EQ(Json(true).as_bool(), true);
  EXPECT_DOUBLE_EQ(Json(2.5).as_number(), 2.5);
  EXPECT_EQ(Json(7).as_int(), 7);
  EXPECT_EQ(Json("hello").as_string(), "hello");
}

TEST(Json, ObjectAccess) {
  JsonObject o;
  o.emplace("a", 1);
  o.emplace("b", "two");
  const Json doc(std::move(o));
  EXPECT_EQ(doc.at("a").as_int(), 1);
  EXPECT_EQ(doc.at("b").as_string(), "two");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_NE(doc.find("a"), nullptr);
}

TEST(Json, DumpScalars) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, DumpEscapesStrings) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, DumpCompactContainer) {
  JsonObject o;
  o.emplace("k", JsonArray{Json(1), Json(2)});
  EXPECT_EQ(Json(std::move(o)).dump(), "{\"k\":[1,2]}");
}

TEST(Json, DumpIndented) {
  JsonObject o;
  o.emplace("k", 1);
  const std::string pretty = Json(std::move(o)).dump(2);
  EXPECT_NE(pretty.find("\n  \"k\": 1"), std::string::npos);
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_EQ(Json::parse("true")->as_bool(), true);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e2")->as_number(), -250.0);
  EXPECT_EQ(Json::parse("\"s\"")->as_string(), "s");
}

TEST(Json, ParseNestedDocument) {
  const auto doc = Json::parse(
      R"({"name": "x", "values": [1, 2, 3], "nested": {"flag": false}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("name").as_string(), "x");
  EXPECT_EQ(doc->at("values").as_array().size(), 3u);
  EXPECT_EQ(doc->at("values").as_array()[2].as_int(), 3);
  EXPECT_FALSE(doc->at("nested").at("flag").as_bool());
}

TEST(Json, ParseWhitespaceTolerant) {
  EXPECT_TRUE(Json::parse("  {  \"a\" :\n[ ]\t}  ").has_value());
}

TEST(Json, ParseEscapes) {
  const auto doc = Json::parse(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "a\"b\\c\ndA");
}

TEST(Json, ParseRejectsMalformed) {
  std::string error;
  EXPECT_FALSE(Json::parse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("tru").has_value());
  EXPECT_FALSE(Json::parse("1 2").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("").has_value());
}

TEST(Json, RoundTripsArbitraryDocument) {
  JsonObject inner;
  inner.emplace("pi", 3.14159);
  inner.emplace("n", -7);
  JsonArray arr;
  arr.emplace_back("s");
  arr.emplace_back(nullptr);
  arr.emplace_back(std::move(inner));
  JsonObject root;
  root.emplace("arr", std::move(arr));
  root.emplace("ok", true);
  const Json doc(std::move(root));

  for (int indent : {-1, 0, 2, 4}) {
    const auto reparsed = Json::parse(doc.dump(indent));
    ASSERT_TRUE(reparsed.has_value()) << "indent " << indent;
    EXPECT_EQ(reparsed->dump(), doc.dump());
  }
}

TEST(Json, NumbersSurviveRoundTrip) {
  for (double v : {0.0, -1.0, 1e-8, 123456789.123, 1e15, -2.5e-3}) {
    const auto doc = Json::parse(Json(v).dump());
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->as_number(), v);
  }
}

TEST(Json, ExactIntegerAcceptsOnlyWholeNumbersInRange) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(exact_integer<int>(2147483647.0), 2147483647);
  EXPECT_EQ(exact_integer<int>(-2147483648.0), -2147483647 - 1);
  EXPECT_EQ(exact_integer<int>(-0.0), 0);
  for (double d : {2147483648.0, -2147483649.0, 4294967297.0, 1.5, -0.5,
                   1e300, -1e300, nan, inf, -inf})
    EXPECT_FALSE(exact_integer<int>(d).has_value()) << d;
  // 2^63 is the first double past int64's range; -2^63 is its minimum.
  EXPECT_FALSE(exact_integer<std::int64_t>(9223372036854775808.0));
  EXPECT_EQ(exact_integer<std::int64_t>(-9223372036854775808.0),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(exact_integer<std::uint64_t>(9223372036854775808.0),
            std::uint64_t{1} << 63);
  EXPECT_FALSE(exact_integer<std::uint64_t>(18446744073709551616.0));
  EXPECT_FALSE(exact_integer<std::uint64_t>(-1.0));
}

}  // namespace
}  // namespace cloudalloc
