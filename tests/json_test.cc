// The nested-data generalization (paper Section 6): sorting JSON in
// external memory through the element-tree encoding.
#include <gtest/gtest.h>

#include "nested/json.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace nexsort {
namespace testing {
namespace {

std::string SortJson(std::string_view json, JsonSortOptions options,
                     size_t block_size = 1024, uint64_t memory_blocks = 32,
                     Status* status_out = nullptr) {
  Env env(block_size, memory_blocks);
  JsonSorter sorter(env.get(), std::move(options));
  StringByteSource source(json);
  std::string out;
  StringByteSink sink(&out);
  Status st = sorter.Sort(&source, &sink);
  if (status_out != nullptr) {
    *status_out = st;
  } else {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return out;
}

std::string RoundTrip(std::string_view json) {
  JsonSortOptions options;
  options.sort_object_members = false;  // pure translation round trip
  return SortJson(json, options);
}

TEST(Json, RoundTripPreservesEverything) {
  EXPECT_EQ(RoundTrip("{}"), "{}");
  EXPECT_EQ(RoundTrip("[]"), "[]");
  EXPECT_EQ(RoundTrip("null"), "null");
  EXPECT_EQ(RoundTrip("true"), "true");
  EXPECT_EQ(RoundTrip("-1.5e3"), "-1.5e3");  // lexeme preserved verbatim
  EXPECT_EQ(RoundTrip("\"hi\""), "\"hi\"");
  EXPECT_EQ(RoundTrip("{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}"),
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}");
  EXPECT_EQ(RoundTrip("[[],{},\"\",0]"), "[[],{},\"\",0]");
}

TEST(Json, RoundTripEscapesAndUnicode) {
  EXPECT_EQ(RoundTrip("\"line\\nbreak\\t\\\"q\\\"\""),
            "\"line\\nbreak\\t\\\"q\\\"\"");
  // \u sequences decode to UTF-8 and re-encode as raw UTF-8.
  EXPECT_EQ(RoundTrip("\"\\u20AC\""), "\"\xE2\x82\xAC\"");
  // Surrogate pair.
  EXPECT_EQ(RoundTrip("\"\\uD83D\\uDE00\""), "\"\xF0\x9F\x98\x80\"");
  // Whitespace-only strings survive (the attribute encoding's raison
  // d'être).
  EXPECT_EQ(RoundTrip("\" \""), "\" \"");
  EXPECT_EQ(RoundTrip("{\"k\":\"  \"}"), "{\"k\":\"  \"}");
}

TEST(Json, RoundTripIgnoresInputWhitespace) {
  EXPECT_EQ(RoundTrip("  {  \"a\" :\n[ 1 , 2 ]\t}  "), "{\"a\":[1,2]}");
}

TEST(Json, SortsObjectMembers) {
  JsonSortOptions options;
  EXPECT_EQ(SortJson("{\"z\":1,\"a\":2,\"m\":{\"y\":0,\"b\":9}}", options),
            "{\"a\":2,\"m\":{\"b\":9,\"y\":0},\"z\":1}");
}

TEST(Json, MemberSortKeepsArraysInOrder) {
  JsonSortOptions options;
  EXPECT_EQ(SortJson("{\"b\":[3,1,2],\"a\":0}", options),
            "{\"a\":0,\"b\":[3,1,2]}");
}

TEST(Json, SortsArraysByMemberPath) {
  JsonSortOptions options;
  options.sort_object_members = false;
  options.sort_arrays_by = "id";
  options.numeric_array_keys = true;
  EXPECT_EQ(SortJson("[{\"id\":30,\"v\":\"c\"},{\"id\":4,\"v\":\"a\"},"
                     "{\"id\":11,\"v\":\"b\"}]",
                     options),
            "[{\"id\":4,\"v\":\"a\"},{\"id\":11,\"v\":\"b\"},"
            "{\"id\":30,\"v\":\"c\"}]");
}

TEST(Json, SortsArraysByNestedPath) {
  JsonSortOptions options;
  options.sort_object_members = false;
  options.sort_arrays_by = "meta/rank";
  options.numeric_array_keys = true;
  EXPECT_EQ(
      SortJson("[{\"meta\":{\"rank\":2}},{\"meta\":{\"rank\":1}}]", options),
      "[{\"meta\":{\"rank\":1}},{\"meta\":{\"rank\":2}}]");
}

TEST(Json, SortsScalarArraysByValue) {
  JsonSortOptions options;
  options.sort_object_members = false;
  options.sort_arrays_by_value = true;
  EXPECT_EQ(SortJson("[\"pear\",\"apple\",\"fig\"]", options),
            "[\"apple\",\"fig\",\"pear\"]");
  options.numeric_array_keys = true;
  EXPECT_EQ(SortJson("[30,4,11]", options), "[4,11,30]");
}

TEST(Json, ItemsWithoutKeyKeepDocumentOrderFirst) {
  JsonSortOptions options;
  options.sort_object_members = false;
  options.sort_arrays_by = "id";
  EXPECT_EQ(SortJson("[{\"id\":\"b\"},{\"x\":1},{\"id\":\"a\"},null]",
                     options),
            "[{\"x\":1},null,{\"id\":\"a\"},{\"id\":\"b\"}]");
}

TEST(Json, LargeDocumentUnderTightMemoryMatchesReference) {
  // Build a large object of shuffled members, each holding an array of
  // keyed records; compare against an order computed independently.
  Random rng(91);
  std::vector<int> member_ids(500);
  for (int i = 0; i < 500; ++i) member_ids[i] = i;
  for (int i = 499; i > 0; --i) {
    std::swap(member_ids[i], member_ids[rng.Uniform(i + 1)]);
  }
  std::string json = "{";
  for (int i = 0; i < 500; ++i) {
    if (i) json += ",";
    json += "\"k" + std::to_string(1000 + member_ids[i]) + "\":{\"payload\":\"" +
            rng.Identifier(40) + "\"}";
  }
  json += "}";

  JsonSortOptions options;
  // 12 blocks: 2 for the pipeline's stream buffers + the sorter's minimum 8.
  std::string sorted = SortJson(json, options, /*block_size=*/512,
                                /*memory_blocks=*/12);
  // Keys k1000..k1499 must appear in ascending (lexicographic) order.
  size_t prev = 0;
  for (int i = 0; i < 500; ++i) {
    std::string needle = "\"k" + std::to_string(1000 + i) + "\":";
    size_t at = sorted.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    EXPECT_GT(at, prev);
    prev = at;
  }
}

TEST(Json, SortIsIdempotent) {
  const std::string json =
      "{\"b\":[{\"id\":2},{\"id\":1}],\"a\":{\"z\":0,\"y\":1}}";
  JsonSortOptions options;
  options.sort_arrays_by = "id";
  options.numeric_array_keys = true;
  std::string once = SortJson(json, options);
  JsonSortOptions options2 = options;
  std::string twice = SortJson(once, options2);
  EXPECT_EQ(once, twice);
}

TEST(Json, MalformedInputRejected) {
  for (const char* bad :
       {"{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "\"open", "01x", "[1 2]",
        "{\"a\":1,}", "\"\\u12\"", "01", "1.", "-.5", "+1", "[01]", "[1.]",
        "[-.5]", "\"a\x01" "b\"", "\"\\udc00\""}) {
    JsonSortOptions options;
    Status status;
    SortJson(bad, options, 1024, 32, &status);
    EXPECT_FALSE(status.ok()) << "input: " << bad;
  }
}

TEST(Json, HundredThousandDeepArrayRoundTrips) {
  // The translation keeps open containers on an explicit stack, so JSON
  // depth is bounded by the input alone, as XML depth is.
  const int depth = 100000;
  const std::string json =
      std::string(depth, '[') + "7" + std::string(depth, ']');
  EXPECT_EQ(SortJson(json, JsonSortOptions{}, 1024, 32), json);
  // Keyed arrays buffer each item and re-key its nested items, also
  // without recursion.
  JsonSortOptions keyed;
  keyed.sort_arrays_by_value = true;
  EXPECT_EQ(SortJson(json, keyed, 1024, 32), json);
}

TEST(Json, TrailingGarbageRejected) {
  JsonSortOptions options;
  Status status;
  SortJson("{} extra", options, 1024, 32, &status);
  EXPECT_TRUE(status.IsParseError());
}

TEST(Json, StatsReported) {
  Env env;
  JsonSorter sorter(env.get(), {});
  StringByteSource source("{\"a\":[1,2],\"b\":{}}");
  std::string out;
  StringByteSink sink(&out);
  NEX_ASSERT_OK(sorter.Sort(&source, &sink));
  EXPECT_EQ(sorter.stats().objects, 2u);
  EXPECT_EQ(sorter.stats().arrays, 1u);
  EXPECT_GE(sorter.stats().values, 5u);
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
