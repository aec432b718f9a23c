// ElementUnit serialization: round trips in both formats, size accounting,
// corruption detection, and the streaming run reader with resume offsets.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/element_unit.h"
#include "tests/test_util.h"
#include "util/varint.h"

namespace nexsort {
namespace testing {
namespace {

ElementUnit MakeStart(uint32_t level, uint64_t seq) {
  ElementUnit unit;
  unit.type = UnitType::kStart;
  unit.level = level;
  unit.seq = seq;
  unit.name = "branch";
  unit.attributes = {{"name", "Durham"}, {"open", "1994"}};
  unit.key = "Durham";
  return unit;
}

void ExpectUnitsEqual(const ElementUnit& a, const ElementUnit& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.attributes, b.attributes);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.run.id, b.run.id);
  EXPECT_EQ(a.run.byte_size, b.run.byte_size);
}

class ElementUnitFormatTest : public ::testing::TestWithParam<bool> {
 protected:
  UnitFormat Format() const { return {.use_dictionary = GetParam()}; }
};

TEST_P(ElementUnitFormatTest, StartUnitRoundTrip) {
  NameDictionary dictionary;
  ElementUnit unit = MakeStart(3, 77);
  std::string buf;
  AppendUnit(&buf, unit, Format(), &dictionary);
  // EncodedSize is an estimate for threshold math: within a few bytes
  // (dictionary ids are guessed at 2 bytes each), never below the truth
  // by more than that slack.
  size_t estimate = unit.EncodedSize(Format());
  EXPECT_LE(buf.size(), estimate + 4);
  EXPECT_GE(buf.size() + 8, estimate);

  std::string_view view = buf;
  ElementUnit back;
  NEX_ASSERT_OK(ParseUnit(&view, &back, Format(), &dictionary));
  EXPECT_TRUE(view.empty());
  ExpectUnitsEqual(unit, back);
}

TEST_P(ElementUnitFormatTest, AllUnitTypesRoundTrip) {
  NameDictionary dictionary;
  std::vector<ElementUnit> units;
  units.push_back(MakeStart(1, 0));

  ElementUnit text;
  text.type = UnitType::kText;
  text.level = 2;
  text.seq = 1;
  text.text = "payload with <chars> & \0 bytes";
  units.push_back(text);

  ElementUnit end;
  end.type = UnitType::kEnd;
  end.level = 1;
  end.seq = 0;
  end.key = "resolved-key";
  units.push_back(end);

  ElementUnit pointer;
  pointer.type = UnitType::kPointer;
  pointer.level = 2;
  pointer.seq = 5;
  pointer.key = "ptr-key";
  pointer.run.id = 9;
  pointer.run.byte_size = 12345;
  units.push_back(pointer);

  ElementUnit fragment;
  fragment.type = UnitType::kFragment;
  fragment.level = 2;
  fragment.seq = 0;
  fragment.run.id = 4;
  fragment.run.byte_size = 512;
  units.push_back(fragment);

  std::string buf;
  for (const ElementUnit& unit : units) {
    AppendUnit(&buf, unit, Format(), &dictionary);
  }
  std::string_view view = buf;
  for (const ElementUnit& unit : units) {
    ElementUnit back;
    NEX_ASSERT_OK(ParseUnit(&view, &back, Format(), &dictionary));
    ExpectUnitsEqual(unit, back);
  }
  EXPECT_TRUE(view.empty());
}

INSTANTIATE_TEST_SUITE_P(Formats, ElementUnitFormatTest,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "Dictionary" : "Verbatim";
                         });

TEST(ElementUnit, DictionaryShrinksRepeatedNames) {
  NameDictionary dictionary;
  ElementUnit unit = MakeStart(2, 1);
  unit.name = "averyveryverylongelementname";
  UnitFormat with{.use_dictionary = true};
  UnitFormat without{.use_dictionary = false};
  std::string compact, verbose;
  AppendUnit(&compact, unit, with, &dictionary);
  AppendUnit(&verbose, unit, without, &dictionary);
  EXPECT_LT(compact.size(), verbose.size());
}

TEST(ElementUnit, ParseRejectsBadType) {
  NameDictionary dictionary;
  std::string buf = "\x09garbage";
  std::string_view view = buf;
  ElementUnit unit;
  EXPECT_TRUE(
      ParseUnit(&view, &unit, {.use_dictionary = true}, &dictionary)
          .IsCorruption());
}

TEST(ElementUnit, ParseRejectsUnknownDictionaryId) {
  NameDictionary dictionary;
  ElementUnit unit = MakeStart(1, 0);
  std::string buf;
  AppendUnit(&buf, unit, {.use_dictionary = true}, &dictionary);
  NameDictionary fresh;  // lacks the interned names
  std::string_view view = buf;
  ElementUnit back;
  EXPECT_TRUE(ParseUnit(&view, &back, {.use_dictionary = true}, &fresh)
                  .IsCorruption());
}

TEST(ElementUnit, ParseRejectsTruncation) {
  NameDictionary dictionary;
  ElementUnit unit = MakeStart(1, 0);
  std::string buf;
  AppendUnit(&buf, unit, {.use_dictionary = true}, &dictionary);
  for (size_t cut = 1; cut < buf.size(); cut += 3) {
    std::string truncated = buf.substr(0, cut);
    std::string_view view = truncated;
    ElementUnit back;
    EXPECT_FALSE(
        ParseUnit(&view, &back, {.use_dictionary = true}, &dictionary).ok())
        << "cut at " << cut;
  }
}

// One unit of every type, serialized back to back in `format`.
std::vector<ElementUnit> EveryUnitType() {
  std::vector<ElementUnit> units;
  units.push_back(MakeStart(3, 77));
  ElementUnit bare = MakeStart(1, 0);
  bare.attributes.clear();
  bare.key.clear();
  units.push_back(bare);
  ElementUnit text;
  text.type = UnitType::kText;
  text.level = 4;
  text.seq = 78;
  text.text = "caf\xC3\xA9 & <more>";
  units.push_back(text);
  ElementUnit end;
  end.type = UnitType::kEnd;
  end.level = 3;
  end.seq = 77;
  end.key = std::string(200, 'k');
  units.push_back(end);
  ElementUnit pointer;
  pointer.type = UnitType::kPointer;
  pointer.level = 2;
  pointer.seq = 1ull << 40;
  pointer.key = "ptr";
  pointer.run = {12345, 987654321};
  units.push_back(pointer);
  ElementUnit fragment;
  fragment.type = UnitType::kFragment;
  fragment.level = 2;
  fragment.run = {7, 4096};
  units.push_back(fragment);
  return units;
}

// Decode `bytes` with both decoders; they must agree on acceptance, on
// the status code, and on how much they consume.
void ExpectDecodersAgree(std::string_view bytes, const UnitFormat& format,
                         const NameDictionary* dictionary) {
  std::string_view parse_input = bytes;
  std::string_view view_input = bytes;
  ElementUnit unit;
  UnitView view;
  Status parsed = ParseUnit(&parse_input, &unit, format, dictionary);
  Status decoded = DecodeUnitView(&view_input, &view, format, dictionary);
  ASSERT_EQ(parsed.ok(), decoded.ok()) << parsed.ToString();
  EXPECT_EQ(parsed.code(), decoded.code());
  if (decoded.ok()) {
    EXPECT_EQ(parse_input.size(), view_input.size());
    EXPECT_EQ(view.bytes.size(), bytes.size() - view_input.size());
  } else {
    EXPECT_TRUE(decoded.IsCorruption()) << decoded.ToString();
  }
}

TEST_P(ElementUnitFormatTest, UnitViewMatchesParseUnit) {
  NameDictionary dictionary;
  for (const ElementUnit& unit : EveryUnitType()) {
    std::string buf;
    AppendUnit(&buf, unit, Format(), &dictionary);
    buf += "trailing";
    std::string_view input = buf;
    UnitView view;
    NEX_ASSERT_OK(DecodeUnitView(&input, &view, Format(), &dictionary));
    EXPECT_EQ(input, "trailing");
    EXPECT_EQ(view.bytes, std::string_view(buf).substr(0, buf.size() - 8));
    EXPECT_EQ(view.type, unit.type);
    EXPECT_EQ(view.level, unit.level);
    EXPECT_EQ(view.seq, unit.seq);
    EXPECT_EQ(view.key, unit.key);
    EXPECT_EQ(view.name, unit.name);
    EXPECT_EQ(view.text, unit.text);
    EXPECT_EQ(view.run.id, unit.run.id);
    EXPECT_EQ(view.run.byte_size, unit.run.byte_size);
    std::vector<XmlAttribute> attributes;
    ForEachAttribute(view, [&](std::string_view name, std::string_view value) {
      attributes.push_back({std::string(name), std::string(value)});
    });
    EXPECT_EQ(attributes, unit.attributes);
  }
}

TEST_P(ElementUnitFormatTest, UnitViewRejectsWhatParseUnitRejects) {
  NameDictionary dictionary;
  for (const ElementUnit& unit : EveryUnitType()) {
    std::string buf;
    AppendUnit(&buf, unit, Format(), &dictionary);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      SCOPED_TRACE("type " + std::to_string(static_cast<int>(unit.type)) +
                   " cut at " + std::to_string(cut));
      std::string truncated = buf.substr(0, cut);
      ExpectDecodersAgree(truncated, Format(), &dictionary);
      std::string_view input = truncated;
      UnitView view;
      EXPECT_TRUE(DecodeUnitView(&input, &view, Format(), &dictionary)
                      .IsCorruption());
    }
    for (char type : {'\x00', '\x06', '\x80', '\xFF'}) {
      std::string bad = buf;
      bad[0] = type;
      ExpectDecodersAgree(bad, Format(), &dictionary);
    }
    // Every single-byte corruption: same verdict from both decoders.
    for (size_t at = 0; at < buf.size(); ++at) {
      for (unsigned char flip : {0x01, 0x80, 0xFF}) {
        std::string bad = buf;
        bad[at] = static_cast<char>(bad[at] ^ flip);
        SCOPED_TRACE("flip at " + std::to_string(at));
        ExpectDecodersAgree(bad, Format(), &dictionary);
      }
    }
    // Dictionary ids the reader's dictionary does not know.
    NameDictionary fresh;
    ExpectDecodersAgree(buf, Format(), &fresh);
  }
}

TEST_P(ElementUnitFormatTest, UnitViewRejectsOutOfRangeIds) {
  NameDictionary dictionary;
  dictionary.Intern("a");
  // kStart, level 1, seq 0, tag, one attribute (name, value), empty key.
  auto start = [&](uint32_t tag, uint32_t attr) {
    std::string buf(1, static_cast<char>(UnitType::kStart));
    PutVarint32(&buf, 1);
    PutVarint64(&buf, 0);
    if (Format().use_dictionary) {
      PutVarint32(&buf, tag);
    } else {
      PutLengthPrefixed(&buf, "a");
    }
    PutVarint64(&buf, 1);
    if (Format().use_dictionary) {
      PutVarint32(&buf, attr);
    } else {
      PutLengthPrefixed(&buf, "a");
    }
    PutLengthPrefixed(&buf, "v");
    PutLengthPrefixed(&buf, "");
    return buf;
  };
  for (auto [tag, attr] : {std::pair<uint32_t, uint32_t>{0, 0},
                           {1, 0},
                           {0, 1},
                           {300, 0},
                           {0, 70000}}) {
    std::string buf = start(tag, attr);
    ExpectDecodersAgree(buf, Format(), &dictionary);
    std::string_view input = buf;
    UnitView view;
    bool in_range = !Format().use_dictionary || (tag == 0 && attr == 0);
    EXPECT_EQ(DecodeUnitView(&input, &view, Format(), &dictionary).ok(),
              in_range)
        << tag << "/" << attr;
  }
}

TEST_P(ElementUnitFormatTest, UnitViewRejectsImplausibleAttributeCount) {
  NameDictionary dictionary;
  std::string buf(1, static_cast<char>(UnitType::kStart));
  PutVarint32(&buf, 1);
  PutVarint64(&buf, 0);
  if (Format().use_dictionary) {
    PutVarint32(&buf, dictionary.Intern("a"));
  } else {
    PutLengthPrefixed(&buf, "a");
  }
  PutVarint64(&buf, 1000);  // far more attributes than bytes follow
  PutLengthPrefixed(&buf, "key");
  ExpectDecodersAgree(buf, Format(), &dictionary);
  std::string_view input = buf;
  UnitView view;
  Status st = DecodeUnitView(&input, &view, Format(), &dictionary);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(st.message(), "implausible attribute count");
}

TEST_P(ElementUnitFormatTest, SpliceStartKeyEqualsReencoding) {
  // Keys whose length prefix changes varint width in both directions.
  const std::vector<size_t> lengths = {0, 1, 127, 128, 200, 20000};
  NameDictionary dictionary;
  for (size_t from : lengths) {
    for (size_t to : lengths) {
      ElementUnit unit = MakeStart(2, 300);
      unit.key = std::string(from, 'a');
      std::string buf;
      AppendUnit(&buf, unit, Format(), &dictionary);
      std::string_view input = buf;
      UnitView view;
      NEX_ASSERT_OK(DecodeUnitView(&input, &view, Format(), &dictionary));
      std::string spliced;
      SpliceStartKey(&spliced, view.bytes, view.key_offset,
                     std::string(to, 'b'));
      unit.key = std::string(to, 'b');
      std::string expected;
      AppendUnit(&expected, unit, Format(), &dictionary);
      EXPECT_EQ(spliced, expected) << from << " -> " << to;
    }
  }
}

TEST(NameDictionary, InternIsIdempotent) {
  NameDictionary dictionary;
  uint32_t a = dictionary.Intern("region");
  uint32_t b = dictionary.Intern("branch");
  EXPECT_NE(a, b);
  EXPECT_EQ(dictionary.Intern("region"), a);
  EXPECT_EQ(dictionary.size(), 2u);
  auto name = dictionary.Lookup(a);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "region");
  EXPECT_TRUE(dictionary.Lookup(99).status().IsCorruption());
}

TEST(RunUnitReader, StreamsUnitsAndTracksOffsets) {
  Env env(128, 8);
  RunStore store(env.device(), env.budget());
  NameDictionary dictionary;
  UnitFormat format;

  std::string buf;
  std::vector<uint64_t> offsets;  // offset after each unit
  for (int i = 0; i < 100; ++i) {
    ElementUnit unit = MakeStart(1 + i % 5, i);
    unit.attributes[0].value = "val" + std::to_string(i);
    AppendUnit(&buf, unit, format, &dictionary);
    offsets.push_back(buf.size());
  }
  RunWriter writer = store.NewRun();
  NEX_ASSERT_OK(writer.init_status());
  NEX_ASSERT_OK(writer.Append(buf));
  RunHandle handle;
  NEX_ASSERT_OK(writer.Finish(&handle));

  RunUnitReader reader(&store, handle, 0, format, &dictionary);
  NEX_ASSERT_OK(reader.init_status());
  UnitView unit;
  for (int i = 0; i < 100; ++i) {
    auto more = reader.Next(&unit);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(*more);
    EXPECT_EQ(unit.seq, static_cast<uint64_t>(i));
    EXPECT_EQ(reader.offset(), offsets[i]);
  }
  auto more = reader.Next(&unit);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(RunUnitReader, ResumesAtSavedOffset) {
  Env env(64, 8);
  RunStore store(env.device(), env.budget());
  NameDictionary dictionary;
  UnitFormat format;

  std::string buf;
  for (int i = 0; i < 20; ++i) {
    ElementUnit unit = MakeStart(1, i);
    AppendUnit(&buf, unit, format, &dictionary);
  }
  RunWriter writer = store.NewRun();
  NEX_ASSERT_OK(writer.init_status());
  NEX_ASSERT_OK(writer.Append(buf));
  RunHandle handle;
  NEX_ASSERT_OK(writer.Finish(&handle));

  // Read 7 units, remember the offset, reopen there.
  uint64_t resume = 0;
  {
    RunUnitReader reader(&store, handle, 0, format, &dictionary);
    NEX_ASSERT_OK(reader.init_status());
    UnitView unit;
    for (int i = 0; i < 7; ++i) {
      auto more = reader.Next(&unit);
      ASSERT_TRUE(more.ok() && *more);
    }
    resume = reader.offset();
  }
  RunUnitReader reader(&store, handle, resume, format, &dictionary);
  NEX_ASSERT_OK(reader.init_status());
  UnitView unit;
  auto more = reader.Next(&unit);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(unit.seq, 7u);
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
