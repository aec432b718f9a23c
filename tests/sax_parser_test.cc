// SAX parser conformance: the supported XML subset, escaping, error cases,
// and streaming across block boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "extmem/stream.h"
#include "tests/test_util.h"
#include "xml/sax_parser.h"

namespace nexsort {
namespace testing {
namespace {

// Drain a source into a flat event trace like "S:a A:id=1 T:hi E:a".
std::string TraceSource(ByteSource* source, SaxOptions options = {}) {
  SaxParser parser(source, options);
  std::string out;
  XmlEvent event;
  while (true) {
    auto more = parser.Next(&event);
    if (!more.ok()) return "ERROR:" + more.status().ToString();
    if (!*more) break;
    switch (event.type) {
      case XmlEventType::kStartElement:
        out += "S:" + event.name;
        for (const auto& attr : event.attributes) {
          out += " A:" + attr.name + "=" + attr.value;
        }
        break;
      case XmlEventType::kEndElement:
        out += "E:" + event.name;
        break;
      case XmlEventType::kText:
        out += "T:" + event.text;
        break;
    }
    out += "|";
  }
  return out;
}

std::string Trace(std::string_view xml, SaxOptions options = {}) {
  StringByteSource source(xml);
  return TraceSource(&source, options);
}

TEST(SaxParser, SimpleDocument) {
  EXPECT_EQ(Trace("<a><b>hi</b></a>"), "S:a|S:b|T:hi|E:b|E:a|");
}

TEST(SaxParser, Attributes) {
  EXPECT_EQ(Trace("<a x=\"1\" y='two'/>"), "S:a A:x=1 A:y=two|E:a|");
}

TEST(SaxParser, AttributeWhitespaceAroundEquals) {
  EXPECT_EQ(Trace("<a x = \"1\"></a>"), "S:a A:x=1|E:a|");
}

TEST(SaxParser, SelfClosingTag) {
  EXPECT_EQ(Trace("<a><b/><c/></a>"), "S:a|S:b|E:b|S:c|E:c|E:a|");
}

TEST(SaxParser, EntityDecoding) {
  EXPECT_EQ(Trace("<a>x &lt;&gt;&amp;&quot;&apos; y</a>"),
            "S:a|T:x <>&\"' y|E:a|");
}

TEST(SaxParser, NumericCharacterReferences) {
  EXPECT_EQ(Trace("<a>&#65;&#x42;</a>"), "S:a|T:AB|E:a|");
}

TEST(SaxParser, EntityInAttributeValue) {
  EXPECT_EQ(Trace("<a k=\"&lt;&amp;&gt;\"/>"), "S:a A:k=<&>|E:a|");
}

TEST(SaxParser, CommentsSkipped) {
  EXPECT_EQ(Trace("<a><!-- no -->x<!-- - -- -->y</a>"), "S:a|T:x|T:y|E:a|");
}

TEST(SaxParser, ProcessingInstructionAndDeclarationSkipped) {
  EXPECT_EQ(Trace("<?xml version=\"1.0\"?><a><?php echo ?>t</a>"),
            "S:a|T:t|E:a|");
}

TEST(SaxParser, DoctypeSkipped) {
  EXPECT_EQ(Trace("<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>x</a>"),
            "S:a|T:x|E:a|");
}

TEST(SaxParser, CdataIsText) {
  EXPECT_EQ(Trace("<a><![CDATA[<raw> & stuff]]></a>"),
            "S:a|T:<raw> & stuff|E:a|");
}

TEST(SaxParser, WhitespaceTextSkippedByDefault) {
  EXPECT_EQ(Trace("<a>\n  <b/>\n</a>"), "S:a|S:b|E:b|E:a|");
}

TEST(SaxParser, WhitespaceTextKeptWhenRequested) {
  SaxOptions options;
  options.skip_whitespace_text = false;
  EXPECT_EQ(Trace("<a> <b/></a>", options), "S:a|T: |S:b|E:b|E:a|");
}

TEST(SaxParser, MismatchedEndTagRejected) {
  EXPECT_NE(Trace("<a><b></a></b>").find("ERROR:ParseError"),
            std::string::npos);
}

TEST(SaxParser, MismatchAllowedInDepthOnlyMode) {
  SaxOptions options;
  options.check_tag_names = false;
  EXPECT_EQ(Trace("<a><b></wrong></a>", options), "S:a|S:b|E:wrong|E:a|");
}

TEST(SaxParser, TruncatedDocumentRejected) {
  EXPECT_NE(Trace("<a><b>").find("ERROR:ParseError"), std::string::npos);
}

TEST(SaxParser, MultipleRootsRejected) {
  EXPECT_NE(Trace("<a/><b/>").find("ERROR:ParseError"), std::string::npos);
}

TEST(SaxParser, TextOutsideRootRejected) {
  EXPECT_NE(Trace("hello<a/>").find("ERROR:ParseError"), std::string::npos);
}

TEST(SaxParser, EmptyInputRejected) {
  EXPECT_NE(Trace("").find("ERROR:ParseError"), std::string::npos);
}

TEST(SaxParser, UnknownEntityRejected) {
  EXPECT_NE(Trace("<a>&bogus;</a>").find("ERROR:ParseError"),
            std::string::npos);
}

TEST(SaxParser, UnterminatedCommentRejected) {
  EXPECT_NE(Trace("<a><!-- open</a>").find("ERROR:ParseError"),
            std::string::npos);
}

TEST(SaxParser, CustomEntitiesFromInternalSubset) {
  EXPECT_EQ(Trace("<!DOCTYPE a [ <!ENTITY co \"ACME &amp; Sons\"> ]>"
                  "<a t=\"&co;\">&co;</a>"),
            "S:a A:t=ACME & Sons|T:ACME & Sons|E:a|");
}

TEST(SaxParser, EntityDefinedViaCharacterReference) {
  EXPECT_EQ(Trace("<!DOCTYPE a [ <!ENTITY e \"&#65;\"> ]><a>&e;</a>"),
            "S:a|T:A|E:a|");
}

TEST(SaxParser, UndefinedCustomEntityStillRejected) {
  EXPECT_NE(Trace("<!DOCTYPE a [ <!ENTITY x \"v\"> ]><a>&y;</a>")
                .find("ERROR:ParseError"),
            std::string::npos);
}

TEST(SaxParser, ParameterEntitiesSkippedGracefully) {
  // %param; declarations and external entities are skipped, not fatal.
  EXPECT_EQ(Trace("<!DOCTYPE a [ <!ENTITY % p SYSTEM \"x.dtd\"> "
                  "<!ENTITY ok \"fine\"> ]><a>&ok;</a>"),
            "S:a|T:fine|E:a|");
}

TEST(SaxParser, DeepNesting) {
  std::string xml;
  const int depth = 2000;
  for (int i = 0; i < depth; ++i) xml += "<d>";
  xml += "x";
  for (int i = 0; i < depth; ++i) xml += "</d>";
  StringByteSource source(xml);
  SaxParser parser(&source);
  XmlEvent event;
  int max_depth = 0;
  int events = 0;
  while (true) {
    auto more = parser.Next(&event);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ++events;
    max_depth = std::max(max_depth, parser.depth());
  }
  EXPECT_EQ(max_depth, depth);
  EXPECT_EQ(events, 2 * depth + 1);
}

TEST(SaxParser, StreamsAcrossBlockBoundaries) {
  // Parse from a device-backed stream whose blocks are far smaller than
  // tags, so every production crosses buffer refills.
  Env env(32, 8);
  std::string xml = "<root>";
  for (int i = 0; i < 50; ++i) {
    xml += "<item key=\"" + std::string(40, 'k') + std::to_string(i) +
           "\">value text " + std::to_string(i) + "</item>";
  }
  xml += "</root>";
  auto range = StoreBytes(env.device(), env.budget(), xml);
  ASSERT_TRUE(range.ok());
  BlockStreamReader reader(env.device(), env.budget(), *range,
                           IoCategory::kInput);
  NEX_ASSERT_OK(reader.init_status());
  SaxParser parser(&reader);
  XmlEvent event;
  int items = 0;
  while (true) {
    auto more = parser.Next(&event);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    if (event.type == XmlEventType::kStartElement && event.name == "item") {
      ++items;
    }
  }
  EXPECT_EQ(items, 50);
  EXPECT_EQ(parser.bytes_consumed(), xml.size());
}

// Hands out 1-7 bytes per Read (seeded), so every production straddles
// many parser refills.
class TrickleByteSource final : public ByteSource {
 public:
  TrickleByteSource(std::string_view data, uint64_t seed)
      : data_(data), rng_(seed) {}

  Status Read(char* buf, size_t n, size_t* out) override {
    size_t want = std::min<size_t>({n, 1 + rng_() % 7, data_.size() - pos_});
    std::memcpy(buf, data_.data() + pos_, want);
    pos_ += want;
    *out = want;
    return Status::OK();
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  std::mt19937_64 rng_;
};

// A seeded document using every construct the parser supports, with tag
// names, attribute values and text longer than one 16 KiB refill chunk.
std::string RefillTortureDocument(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::vector<std::string> pieces = {
      "plain", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&co;", "&e;",
      "&#65;", "&#x42;", "&#x20AC;", "&#233;", "h\xC3\xA9llo",
      "\xE2\x82\xAC", "\xF0\x9F\x98\x80", " ", "'", "]]", "x-y.z"};
  auto value = [&](size_t max_pieces) {
    std::string out;
    for (size_t i = rng() % max_pieces; i > 0; --i) {
      out += pieces[rng() % pieces.size()];
    }
    return out;
  };
  std::string xml =
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE root [ <!ENTITY co \"ACME &amp; Sons\"> "
      "<!ENTITY e \"&#233;t&#xE9;\"> ]>\n<root>";
  for (int i = 0; i < 300; ++i) {
    std::string name = "item" + std::string(rng() % 20, 'x') + "-" +
                       std::to_string(i % 7);
    xml += "\n  <" + name;
    for (uint64_t a = rng() % 4; a > 0; --a) {
      xml += " a" + std::to_string(a) + (rng() % 2 ? " = " : "=") + "\"" +
             value(6) + "\"";
    }
    if (rng() % 5 == 0) {
      xml += rng() % 2 ? "/>" : " />";
      continue;
    }
    xml += ">";
    switch (rng() % 5) {
      case 0: xml += "<![CDATA[<raw> & a]b]]c " + value(4) + "]]>"; break;
      case 1: xml += "<!-- note -- - -->" + value(5); break;
      case 2: xml += "<?pi some data?>" + value(5); break;
      default: xml += value(8);
    }
    xml += "</" + name + " >";
  }
  std::string long_name = "long" + std::string(20000, 'n');
  xml += "<" + long_name + " v='" + std::string(20000, 'v') + "&amp;'>" +
         std::string(20000, 't') + "&lt;" + std::string(17000, ' ') +
         "</" + long_name + ">\n</root>\n";
  return xml;
}

TEST(SaxParser, TrickleSourceMatchesWholeBufferParse) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::string xml = RefillTortureDocument(seed);
    for (bool skip_whitespace : {true, false}) {
      SaxOptions options;
      options.skip_whitespace_text = skip_whitespace;
      std::string whole = Trace(xml, options);
      ASSERT_EQ(whole.find("ERROR"), std::string::npos) << whole;
      ASSERT_NE(whole.find("A:v=" + std::string(20000, 'v') + "&"),
                std::string::npos);
      for (uint64_t trickle_seed : {7u, 8u}) {
        TrickleByteSource trickle(xml, trickle_seed);
        EXPECT_EQ(TraceSource(&trickle, options), whole)
            << "document seed " << seed << ", trickle seed " << trickle_seed;
      }
    }
  }
}

TEST(SaxParser, TrickleSourceKeepsEveryParseError) {
  const std::vector<std::string> malformed = {
      "",
      "   ",
      "hello<a/>",
      "<a><b></a></b>",
      "<a><b>",
      "<a>text",
      "<a/><b/>",
      "<a>&bogus;</a>",
      "<a>&amp</a>",
      "<a>&#xZZ;</a>",
      "<a>&#;</a>",
      "<a x=\"&nope;\"/>",
      "<a x=\"1></a>",
      "<a x=1></a>",
      "<a x></a>",
      "<a x=\"1\"",
      "<a/ >",
      "<1a/>",
      "<a></ a>",
      "<a></a",
      "<a><!-- open</a>",
      "<a><![CDATA[open</a>",
      "<a><?pi open",
      "<!DOCTYPE a [ <!ENTITY e \"open ]><a/>",
      "<a></a>trailing",
      "<a><!",
      "<" + std::string(20000, 'n'),
      "<a v=\"" + std::string(20000, 'v'),
  };
  for (const std::string& xml : malformed) {
    std::string whole = Trace(xml);
    EXPECT_EQ(whole.rfind("ERROR:ParseError", 0), 0u)
        << xml.substr(0, 40) << " -> " << whole;
    TrickleByteSource trickle(xml, 5);
    EXPECT_EQ(TraceSource(&trickle), whole) << xml.substr(0, 40);
  }
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
