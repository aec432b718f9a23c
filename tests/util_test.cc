// Unit tests for the util layer: Status/StatusOr, varint coding, the
// deterministic RNG, and string helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/varint.h"

namespace nexsort {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::IOError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_FALSE(st.IsCorruption());
  EXPECT_EQ(st.ToString(), "IOError: disk on fire");
}

TEST(Status, AllConstructorsSetTheirCode) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::OutOfMemory("x").IsOutOfMemory());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> result = Status::NotFound("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(StatusOr, MovesValueOut) {
  StatusOr<std::string> result = std::string("payload");
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

TEST(Varint, RoundTripsBoundaryValues) {
  for (uint64_t value :
       {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
        uint64_t{16383}, uint64_t{16384}, uint64_t{1} << 32, UINT64_MAX}) {
    std::string buf;
    PutVarint64(&buf, value);
    EXPECT_EQ(buf.size(), static_cast<size_t>(VarintLength(value)));
    std::string_view view = buf;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(&view, &decoded).ok());
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(view.empty());
  }
}

TEST(Varint, DetectsTruncation) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  buf.resize(buf.size() - 1);
  std::string_view view = buf;
  uint64_t decoded = 0;
  EXPECT_TRUE(GetVarint64(&view, &decoded).IsCorruption());
}

TEST(Varint, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  std::string_view view = buf;
  uint32_t decoded = 0;
  EXPECT_TRUE(GetVarint32(&view, &decoded).IsCorruption());
}

TEST(Varint, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'z'));
  std::string_view view = buf;
  std::string_view value;
  ASSERT_TRUE(GetLengthPrefixed(&view, &value).ok());
  EXPECT_EQ(value, "hello");
  ASSERT_TRUE(GetLengthPrefixed(&view, &value).ok());
  EXPECT_EQ(value, "");
  ASSERT_TRUE(GetLengthPrefixed(&view, &value).ok());
  EXPECT_EQ(value.size(), 1000u);
  EXPECT_TRUE(view.empty());
}

TEST(Varint, LengthPrefixedDetectsTruncation) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  buf.resize(3);
  std::string_view view = buf;
  std::string_view value;
  EXPECT_TRUE(GetLengthPrefixed(&view, &value).IsCorruption());
}

TEST(Random, DeterministicForSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Random, DifferentSeedsDiverge) {
  Random a(1);
  Random b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Random, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Random, IdentifierIsLowercaseAlpha) {
  Random rng(8);
  std::string id = rng.Identifier(64);
  EXPECT_EQ(id.size(), 64u);
  for (char c : id) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(Random, SeedZeroWorks) {
  Random rng(0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 50; ++i) seen.insert(rng.Next());
  EXPECT_GT(seen.size(), 45u);
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  auto parts = Split("a/b//c", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, SplitSingleField) {
  auto parts = Split("abc", '/');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtil, ParseNumberAcceptsAndRejects) {
  double v = 0;
  EXPECT_TRUE(ParseNumber("42", &v));
  EXPECT_EQ(v, 42.0);
  EXPECT_TRUE(ParseNumber("-3.5", &v));
  EXPECT_EQ(v, -3.5);
  EXPECT_TRUE(ParseNumber("1e3", &v));
  EXPECT_EQ(v, 1000.0);
  EXPECT_FALSE(ParseNumber("", &v));
  EXPECT_FALSE(ParseNumber("12abc", &v));
  EXPECT_FALSE(ParseNumber("abc", &v));
}

TEST(StringUtil, ParseNumberIntegerFastPathMatchesStrtod) {
  // The integer fast path must agree with strtod bit for bit, and inputs
  // it does not take (too long, signs, spaces, exponents) still parse
  // exactly as strtod does.
  const std::vector<std::string> inputs = {
      "0",     "-0",   "007",  "9",     "-9",  "123456789012345",
      "-999999999999999",     "1234567890123456", "99999999999999999999",
      "-",     "+5",   " 5",   "5 ",    "1e3", "0x10", "1.5", "--1", "4-2"};
  for (const std::string& input : inputs) {
    char* end = nullptr;
    double expected = std::strtod(input.c_str(), &end);
    bool expected_ok = end == input.c_str() + input.size();
    double value = 0;
    ASSERT_EQ(ParseNumber(input, &value), expected_ok) << input;
    if (expected_ok) {
      EXPECT_EQ(value, expected) << input;
      EXPECT_EQ(std::signbit(value), std::signbit(expected)) << input;
    }
  }
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(StringUtil, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
}

}  // namespace
}  // namespace nexsort
