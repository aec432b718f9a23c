// Randomized JSON property sweeps: generated documents round-trip through
// the encoding, sorting matches a DOM-level reference (translate,
// recursively sort the element encoding, translate back), and mutated
// documents get the same verdict from both JSON entry points.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dom_sort.h"
#include "nested/json.h"
#include "service/wire.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace nexsort {
namespace testing {
namespace {

// Deterministic random JSON generator.
class JsonGenerator {
 public:
  explicit JsonGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate(int max_depth) {
    std::string out;
    Value(&out, max_depth);
    return out;
  }

 private:
  void Value(std::string* out, int depth_left) {
    uint64_t kind = depth_left > 0 ? rng_.Uniform(6) : 2 + rng_.Uniform(4);
    switch (kind) {
      case 0: Object(out, depth_left); break;
      case 1: Array(out, depth_left); break;
      case 2: String(out); break;
      case 3:
        out->append(std::to_string(static_cast<int64_t>(rng_.Uniform(2000)) -
                                   1000));
        break;
      case 4: out->append(rng_.OneIn(2) ? "true" : "false"); break;
      default: out->append("null"); break;
    }
  }

  void Object(std::string* out, int depth_left) {
    out->push_back('{');
    int members = rng_.Uniform(5);
    for (int i = 0; i < members; ++i) {
      if (i) out->push_back(',');
      // Occasionally duplicate-free keys with varied shapes.
      out->push_back('"');
      out->append("k" + std::to_string(i) + rng_.Identifier(3));
      out->push_back('"');
      out->push_back(':');
      Value(out, depth_left - 1);
    }
    out->push_back('}');
  }

  void Array(std::string* out, int depth_left) {
    out->push_back('[');
    int items = rng_.Uniform(5);
    for (int i = 0; i < items; ++i) {
      if (i) out->push_back(',');
      Value(out, depth_left - 1);
    }
    out->push_back(']');
  }

  void String(std::string* out) {
    out->push_back('"');
    size_t length = rng_.Uniform(8);
    for (size_t i = 0; i < length; ++i) {
      switch (rng_.Uniform(12)) {
        case 0: out->append("\\\""); break;
        case 1: out->append("\\\\"); break;
        case 2: out->append("\\n"); break;
        case 3: out->append("\\u00e9"); break;
        default: out->push_back(static_cast<char>('a' + rng_.Uniform(26)));
      }
    }
    out->push_back('"');
  }

  Random rng_;
};

class JsonSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonSweep, TranslationRoundTripsThroughTheEncoding) {
  JsonGenerator generator(GetParam());
  std::string json = generator.Generate(4);

  // JSON -> encoding -> JSON with no sorting must reproduce the canonical
  // compact form, which for our generator is the input itself.
  JsonSortOptions options;
  std::string encoded;
  {
    StringByteSource source(json);
    StringByteSink sink(&encoded);
    JsonSortStats stats;
    NEX_ASSERT_OK(JsonToXml(&source, &sink, options, &stats));
  }
  std::string back;
  {
    StringByteSource source(encoded);
    StringByteSink sink(&back);
    NEX_ASSERT_OK(XmlToJson(&source, &sink));
  }
  // Compare semantically: é decodes to UTF-8 on the way through, so
  // normalize the input the same way by a second round trip.
  std::string normalized;
  {
    StringByteSource source(back);
    std::string encoded2;
    StringByteSink sink(&encoded2);
    JsonSortStats stats;
    NEX_ASSERT_OK(JsonToXml(&source, &sink, options, &stats));
    StringByteSource source2(encoded2);
    StringByteSink sink2(&normalized);
    NEX_ASSERT_OK(XmlToJson(&source2, &sink2));
  }
  EXPECT_EQ(back, normalized);  // translation is a projection (idempotent)
}

TEST_P(JsonSweep, SortMatchesDomReference) {
  JsonGenerator generator(GetParam() + 1000);
  std::string json = generator.Generate(4);

  JsonSortOptions options;
  options.sort_object_members = true;
  options.sort_arrays_by_value = true;

  // Reference: translate, recursively DOM-sort the encoding with the same
  // OrderSpec, translate back.
  std::string reference;
  {
    std::string encoded;
    StringByteSource source(json);
    StringByteSink sink(&encoded);
    JsonSortStats stats;
    NEX_ASSERT_OK(JsonToXml(&source, &sink, options, &stats));
    auto sorted_encoding =
        SortXmlStringInMemory(encoded, JsonOrderSpec(options));
    ASSERT_TRUE(sorted_encoding.ok());
    StringByteSource source2(*sorted_encoding);
    StringByteSink sink2(&reference);
    NEX_ASSERT_OK(XmlToJson(&source2, &sink2));
  }

  Env env(512, 12);
  JsonSorter sorter(env.get(), options);
  StringByteSource source(json);
  std::string sorted;
  StringByteSink sink(&sorted);
  NEX_ASSERT_OK(sorter.Sort(&source, &sink));
  EXPECT_EQ(sorted, reference) << "input: " << json;
}

// Hand-written documents covering every token kind, escape and number
// form, plus the two places where JsonValue is deliberately stricter than
// the sorter: 64 levels of nesting and a number at the edge of a double.
std::vector<std::string> JsonFixtures() {
  return {
      R"({"op":"submit","job":{"kind":"sort","order":"a:attr(id)n",)"
      R"("priority":-3,"inputs":["x.xml"],"stream":true,"tenant":null}})",
      R"({"users":[{"id":3,"name":"ann"},{"id":1,"name":"bob"}],)"
      R"("total":2,"tags":["x","y"],"meta":{"v":1.5,"ok":true}})",
      R"([0,-0,10,-2.50,1e5,1E-5,6.02e+23,"",false,null,[],{}])",
      R"({"s":"a\nb\t\"q\"\\ \/ A é 😀 \b\f\r"})",
      "  [ 1 ,\n\t{ \"k\" : [ true ] } ]\r\n",
      R"([1.7976931348623157e308,-1e308,4.9e-324])",
      std::string(64, '[') + "0" + std::string(64, ']'),
  };
}

// One seeded mutation: flip a bit, overwrite, insert or delete a byte, or
// truncate. Replacement bytes favour JSON's structural characters.
std::string Mutate(std::string text, Random* rng) {
  static constexpr std::string_view kBytes =
      "{}[],:\"\\0123456789-+.eEtrufalsnu \x01\x7f\xff";
  auto byte = [&] {
    return rng->OneIn(4) ? static_cast<char>(rng->Uniform(256))
                         : kBytes[rng->Uniform(kBytes.size())];
  };
  size_t at = text.empty() ? 0 : rng->Uniform(text.size());
  switch (text.empty() ? 2 : rng->Uniform(5)) {
    case 0: text[at] ^= static_cast<char>(1 << rng->Uniform(8)); break;
    case 1: text[at] = byte(); break;
    case 2: text.insert(at, 1, byte()); break;
    case 3: text.erase(at, 1); break;
    default: text.resize(at); break;
  }
  return text;
}

bool IsCapException(const Status& status) {
  return status.message().rfind("json: nesting too deep", 0) == 0 ||
         status.message().rfind("json: number out of range", 0) == 0;
}

TEST_P(JsonSweep, MutantsGetTheSameVerdictFromBothEntryPoints) {
  std::vector<std::string> fixtures = JsonFixtures();
  fixtures.push_back(JsonGenerator(GetParam() + 2000).Generate(4));
  Random rng(GetParam() + 3000);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& fixture : fixtures) {
    for (int trial = 0; trial < 40; ++trial) {
      std::string mutant = fixture;
      for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
        mutant = Mutate(std::move(mutant), &rng);
      }
      SCOPED_TRACE("mutant: " + mutant);
      auto parsed = JsonValue::Parse(mutant);
      std::string encoded;
      Status translated;
      {
        StringByteSource source(mutant);
        StringByteSink sink(&encoded);
        translated = JsonToXml(&source, &sink, JsonSortOptions{}, nullptr);
      }
      ASSERT_TRUE(parsed.ok() || parsed.status().IsParseError())
          << parsed.status().ToString();
      ASSERT_TRUE(translated.ok() || translated.IsParseError())
          << translated.ToString();
      if (!parsed.ok() && IsCapException(parsed.status())) {
        continue;  // JsonValue's own limits; the sorter may accept
      }
      ASSERT_EQ(parsed.ok(), translated.ok())
          << parsed.status().ToString() << " vs " << translated.ToString();
      if (!translated.ok()) {
        ++rejected;
        EXPECT_EQ(parsed.status().message(), translated.message());
        EXPECT_EQ(translated.message().rfind("json: ", 0), 0u);
        EXPECT_NE(translated.message().find(" at byte "), std::string::npos);
        continue;
      }
      ++accepted;
      // Whatever the translation accepts, its way back out is JSON.
      std::string back;
      StringByteSource source(encoded);
      StringByteSink sink(&back);
      NEX_ASSERT_OK(XmlToJson(&source, &sink));
      EXPECT_TRUE(JsonValue::Parse(back).ok()) << back;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonSweep,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace testing
}  // namespace nexsort
