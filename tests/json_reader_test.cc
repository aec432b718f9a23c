// The one JSON reader (nested/json_reader.h) and its two entry points:
// JsonValue::Parse (the service's request DOM) and JsonToXml (the first
// stage of JsonSorter). Both must accept and reject the same text with the
// same "json: <what> at byte N" error; the only differences are
// JsonValue's 64-level nesting cap and its rejection of numbers that do not
// fit a double.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "extmem/stream.h"
#include "nested/json.h"
#include "nested/json_reader.h"
#include "service/wire.h"
#include "util/status.h"

namespace nexsort {
namespace {

Status Translate(std::string_view json) {
  StringByteSource source(json);
  std::string encoded;
  StringByteSink sink(&encoded);
  return JsonToXml(&source, &sink, JsonSortOptions{}, nullptr);
}

std::string Nested(size_t depth, std::string_view open,
                   std::string_view inner, std::string_view close) {
  std::string out;
  for (size_t i = 0; i < depth; ++i) out += open;
  out += inner;
  for (size_t i = 0; i < depth; ++i) out += close;
  return out;
}

std::string Events(std::string_view json) {
  StringByteSource source(json);
  JsonReader reader(&source);
  std::string trace;
  JsonEvent event;
  do {
    Status st = reader.Next(&event);
    if (!st.ok()) return trace + "ERROR:" + st.message();
    static const char* const kNames[] = {"{", "}", "[", "]", "K", "S",
                                         "N", "T", "F", "Z", "END"};
    trace += kNames[static_cast<int>(event.type)];
    if (!event.text.empty()) trace += "(" + event.text + ")";
    trace += "@" + std::to_string(event.offset) + " ";
  } while (event.type != JsonEvent::Type::kEnd);
  return trace;
}

TEST(JsonReader, EventsCarryDecodedTextLexemesAndOffsets) {
  EXPECT_EQ(Events(R"( {"a\n":[-0.5E+3,"x\u00e9",true]} )"),
            "{@1 K(a\n)@2 [@8 N(-0.5E+3)@9 S(x\xC3\xA9)@17 T@27 ]@31 }@32 "
            "END@34 ");
  EXPECT_EQ(Events("[null,false,{}]"), "[@0 Z@1 F@6 {@12 }@13 ]@14 END@15 ");
}

TEST(JsonReader, ReadsAcrossBufferRefills) {
  // Strings, escapes and number lexemes straddling the 8 KiB refill.
  std::string long_text(20000, 'q');
  std::string json = "[\"" + long_text + "\\u20ac\"," +
                     std::string(8190 - long_text.size() % 8192, ' ') +
                     "123456.75e-2]";
  StringByteSource source(json);
  JsonReader reader(&source);
  JsonEvent event;
  ASSERT_TRUE(reader.Next(&event).ok());
  ASSERT_TRUE(reader.Next(&event).ok());
  EXPECT_EQ(event.text, long_text + "\xE2\x82\xAC");
  ASSERT_TRUE(reader.Next(&event).ok());
  EXPECT_EQ(event.text, "123456.75e-2");
  EXPECT_EQ(event.offset, json.size() - 13);
}

TEST(JsonReader, BothEntryPointsReportTheSameError) {
  struct Case {
    std::string input;
    std::string error;
  };
  const std::vector<Case> cases = {
      {"", "json: unexpected end at byte 0"},
      {"[01]", "json: malformed number at byte 1"},
      {"01", "json: malformed number at byte 0"},
      {"[1.]", "json: malformed number at byte 1"},
      {"1.", "json: malformed number at byte 0"},
      {"[-.5]", "json: malformed number at byte 1"},
      {"-.5", "json: malformed number at byte 0"},
      {"-", "json: malformed number at byte 0"},
      {"1e", "json: malformed number at byte 0"},
      {"1e+", "json: malformed number at byte 0"},
      {"+1", "json: unexpected character at byte 0"},
      {"[+1]", "json: unexpected character at byte 1"},
      {"\"a\x01\"", "json: raw control character at byte 2"},
      {"\"tab\there\"", "json: raw control character at byte 4"},
      {"\"\\udc00\"", "json: unpaired low surrogate at byte 1"},
      {"\"\\ud800\"", "json: unpaired high surrogate at byte 1"},
      {"\"\\ud800\\u0041\"", "json: unpaired high surrogate at byte 1"},
      {"\"\\u12\"", "json: bad hex digit at byte 5"},
      {"\"\\u12", "json: unexpected end at byte 5"},
      {"\"\\x\"", "json: unknown escape at byte 1"},
      {"\"\\", "json: dangling escape at byte 1"},
      {"\"open", "json: unterminated string at byte 0"},
      {"tru", "json: malformed literal at byte 0"},
      {"nul", "json: malformed literal at byte 0"},
      {"{\"a\"}", "json: expected ':' at byte 4"},
      {"{\"a\":}", "json: expected value at byte 5"},
      {"{\"a\":1,}", "json: expected member name at byte 7"},
      {"{1:2}", "json: expected member name at byte 1"},
      {"[1,]", "json: expected value at byte 3"},
      {"[1 2]", "json: expected ',' or ']' at byte 3"},
      {"{\"a\":1 \"b\":2}", "json: expected ',' or '}' at byte 7"},
      {"{} extra", "json: trailing content after document at byte 3"},
      {"[1,", "json: unexpected end at byte 3"},
      {"@", "json: unexpected character at byte 0"},
  };
  for (const Case& c : cases) {
    auto parsed = JsonValue::Parse(c.input);
    ASSERT_FALSE(parsed.ok()) << c.input;
    EXPECT_TRUE(parsed.status().IsParseError()) << c.input;
    EXPECT_EQ(parsed.status().message(), c.error) << c.input;
    Status translated = Translate(c.input);
    EXPECT_TRUE(translated.IsParseError()) << c.input;
    EXPECT_EQ(translated.message(), c.error) << c.input;
  }
}

TEST(JsonReader, StrictGrammarStillAcceptsEveryValidForm) {
  for (const char* good :
       {"0", "-0", "0.5", "-0.0e0", "10", "1E5", "1e-5", "1.25E+10",
        "\"\"", "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"", "\"\\uD83D\\uDE00\"",
        "\"\x7F\xC3\xA9\"", " \t\r\n[ ] ", "{\"\":{}}", "[[],[[]]]"}) {
    EXPECT_TRUE(JsonValue::Parse(good).ok()) << good;
    EXPECT_TRUE(Translate(good).ok()) << good;
  }
}

TEST(JsonReader, OnlyJsonValueCapsNestingAt64) {
  // A value inside 64 containers is the deepest a request may nest.
  const std::string deepest = Nested(64, "{\"a\":", "1", "}");
  EXPECT_TRUE(JsonValue::Parse(deepest).ok());
  const std::string too_deep = Nested(65, "{\"a\":", "1", "}");
  auto parsed = JsonValue::Parse(too_deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(), "json: nesting too deep at byte 325");
  EXPECT_TRUE(JsonValue::Parse(Nested(65, "[", "", "]")).ok());
  EXPECT_FALSE(JsonValue::Parse(Nested(66, "[", "", "]")).ok());
  // The sorter's translation has no cap; the JsonSorter test
  // HundredThousandDeepArrayRoundTrips takes it to 100,000 levels.
  EXPECT_TRUE(Translate(too_deep).ok());
}

TEST(JsonReader, OnlyJsonValueRejectsNumbersBeyondADouble) {
  for (const char* huge : {"1e400", "-1e400", "[1E999]"}) {
    auto parsed = JsonValue::Parse(huge);
    ASSERT_FALSE(parsed.ok()) << huge;
    EXPECT_NE(parsed.status().message().find("json: number out of range"),
              std::string::npos);
    EXPECT_TRUE(Translate(huge).ok()) << huge;
  }
  // Underflow is fine: it rounds to zero.
  EXPECT_TRUE(JsonValue::Parse("1e-400").ok());
}

}  // namespace
}  // namespace nexsort
