#include "serve/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace pprophet::serve {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_EQ(json_parse("true").as_bool(), true);
  EXPECT_EQ(json_parse("false").as_bool(), false);
  EXPECT_EQ(json_parse("42").as_int(), 42);
  EXPECT_EQ(json_parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(json_parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(json_parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegersStayIntegers) {
  // Cycle counts must round-trip bit-exactly (docs/SERVE.md); an int64 that
  // went through a double would lose low bits.
  const std::int64_t big = 9'007'199'254'740'993;  // 2^53 + 1
  const JsonValue v = json_parse(std::to_string(big));
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), big);
  EXPECT_EQ(json_dump(v), std::to_string(big));
}

TEST(Json, DoublesRoundTrip) {
  for (const double d : {0.1, 1.0 / 3.0, 6.02214076e23, -0.0625}) {
    const JsonValue back = json_parse(json_dump(JsonValue(d)));
    EXPECT_EQ(back.as_double(), d);
  }
}

TEST(Json, StringEscapes) {
  const JsonValue v = json_parse(R"("a\"b\\c\ndAé")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd"
                           "A\xC3\xA9");
  // Control characters must be escaped on output.
  const std::string dumped = json_dump(JsonValue(std::string("x\x01y")));
  EXPECT_EQ(dumped, "\"x\\u0001y\"");
  EXPECT_EQ(json_parse(dumped).as_string(), std::string("x\x01y"));
}

TEST(Json, SurrogatePairs) {
  const JsonValue v = json_parse(R"("😀")");  // 😀 U+1F600
  EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, ObjectsAndArrays) {
  const JsonValue v = json_parse(R"({"b":[1,2,{"x":null}],"a":true})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("b").as_array().size(), 3u);
  EXPECT_TRUE(v.at("b").as_array()[2].at("x").is_null());
  EXPECT_EQ(v.at("a").as_bool(), true);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), JsonError);
}

TEST(Json, DumpIsCanonical) {
  // Same fields, different order -> identical bytes (the result cache keys
  // on this).
  const JsonValue a = json_parse(R"({"z":1,"a":[true,"s"],"m":{"k":2}})");
  const JsonValue b = json_parse(R"({"m":{"k":2},"a":[true,"s"],"z":1})");
  EXPECT_EQ(json_dump(a), json_dump(b));
  EXPECT_EQ(json_dump(a), R"({"a":[true,"s"],"m":{"k":2},"z":1})");
  EXPECT_EQ(a, b);
}

TEST(Json, RejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "\"unterminated", "{\"a\":}", "01", "1.2.3",
        "[1 2]", "{\"a\" 1}", "nul", "\"bad \\q escape\"", "+5"}) {
    EXPECT_THROW(json_parse(bad), JsonError) << bad;
  }
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_THROW(json_parse("1 2"), JsonError);
  EXPECT_THROW(json_parse("{} x"), JsonError);
  EXPECT_NO_THROW(json_parse("  {}  "));  // surrounding whitespace is fine
}

TEST(Json, RejectsRawControlCharactersInStrings) {
  EXPECT_THROW(json_parse("\"a\nb\""), JsonError);
}

TEST(Json, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_THROW(json_parse(deep), JsonError);
  std::string ok;
  for (int i = 0; i < 50; ++i) ok += '[';
  for (int i = 0; i < 50; ++i) ok += ']';
  EXPECT_NO_THROW(json_parse(ok));
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const JsonValue v = json_parse("\"s\"");
  EXPECT_THROW(v.as_int(), JsonError);
  EXPECT_THROW(v.as_bool(), JsonError);
  EXPECT_THROW(v.as_array(), JsonError);
  EXPECT_THROW(json_parse("-1").as_u64(), JsonError);
  // as_double accepts Int, as_int does not accept Double.
  EXPECT_DOUBLE_EQ(json_parse("3").as_double(), 3.0);
  EXPECT_THROW(json_parse("3.5").as_int(), JsonError);
}

TEST(Json, SetBuildsObjects) {
  JsonValue v;
  v.set("b", JsonValue(std::uint64_t{2}));
  v.set("a", JsonValue("x"));
  EXPECT_EQ(json_dump(v), R"({"a":"x","b":2})");
}

TEST(Json, RawIsDumpedVerbatimInsideObjectsAndArrays) {
  const std::string stored = R"({"cells":[{"speedup":1.5}],"n":3})";
  JsonValue r;
  r.set("ok", JsonValue(true));
  r.set("result", JsonValue::raw(stored));
  r.set("z", JsonValue(JsonValue::Array{JsonValue::raw("[1,2]"),
                                        JsonValue(nullptr)}));
  EXPECT_EQ(json_dump(r), R"({"ok":true,"result":)" + stored +
                              R"(,"z":[[1,2],null]})");
}

TEST(Json, RawComparesByText) {
  EXPECT_EQ(JsonValue::raw("[1,2]"), JsonValue::raw("[1,2]"));
  EXPECT_FALSE(JsonValue::raw("[1,2]") == JsonValue::raw("[1, 2]"));
  // A Raw never equals a parsed value, nor a String holding the same text.
  EXPECT_FALSE(JsonValue::raw("[1,2]") == json_parse("[1,2]"));
  EXPECT_FALSE(JsonValue::raw("\"s\"") == JsonValue("\"s\""));
}

TEST(Json, TypedAccessorsThrowOnRaw) {
  const JsonValue v = JsonValue::raw(R"({"a":1})");
  EXPECT_EQ(v.kind(), JsonValue::Kind::Raw);
  EXPECT_FALSE(v.is_object());
  EXPECT_FALSE(v.is_string());
  EXPECT_EQ(v.raw_text(), R"({"a":1})");
  EXPECT_THROW(v.as_bool(), JsonError);
  EXPECT_THROW(v.as_int(), JsonError);
  EXPECT_THROW(v.as_u64(), JsonError);
  EXPECT_THROW(v.as_double(), JsonError);
  EXPECT_THROW(v.as_string(), JsonError);
  EXPECT_THROW(v.as_array(), JsonError);
  EXPECT_THROW(v.as_object(), JsonError);
  EXPECT_EQ(v.find("a"), nullptr);
  EXPECT_THROW(v.at("a"), JsonError);
  JsonValue m = JsonValue::raw("[]");
  EXPECT_THROW(m.as_array(), JsonError);
  EXPECT_THROW(m.set("k", JsonValue(1)), JsonError);
  EXPECT_THROW(json_parse("1").raw_text(), JsonError);
}

bool contains_raw(const JsonValue& v) {
  if (v.kind() == JsonValue::Kind::Raw) return true;
  if (v.is_array()) {
    for (const JsonValue& e : v.as_array()) {
      if (contains_raw(e)) return true;
    }
  }
  if (v.is_object()) {
    for (const auto& [k, e] : v.as_object()) {
      if (contains_raw(e)) return true;
    }
  }
  return false;
}

TEST(Json, ParseNeverYieldsRaw) {
  for (const char* text :
       {"null", "true", "7", "-2.5e3", "\"s\"", "[]", "{}",
        R"({"result":{"cells":[{"speedup":1.5,"m":null}]},"raw":"[1,2]"})",
        R"([[["deep"]],{"a":[{}]}])"}) {
    const JsonValue v = json_parse(text);
    EXPECT_FALSE(contains_raw(v)) << text;
    // Splicing a value's dump writes the bytes dumping the value writes.
    EXPECT_EQ(json_dump(JsonValue::raw(json_dump(v))), json_dump(v)) << text;
  }
}

}  // namespace
}  // namespace pprophet::serve
