// XmlWriter escaping/round-trips, DOM construction, and generators.
#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "util/random.h"
#include "xml/dom.h"
#include "xml/escape.h"
#include "xml/generator.h"
#include "xml/sax_parser.h"
#include "xml/writer.h"

namespace nexsort {
namespace testing {
namespace {

TEST(Escape, TextEscaping) {
  std::string out;
  AppendEscapedText(&out, "a<b>&c");
  EXPECT_EQ(out, "a&lt;b&gt;&amp;c");
}

TEST(Escape, AttributeEscaping) {
  std::string out;
  AppendEscapedAttribute(&out, "say \"hi\" & <go>");
  EXPECT_EQ(out, "say &quot;hi&quot; &amp; &lt;go&gt;");
}

TEST(Escape, UnescapeRoundTrip) {
  std::string escaped;
  AppendEscapedText(&escaped, "x<&>y\"z'");
  std::string back;
  NEX_ASSERT_OK(AppendUnescaped(&back, escaped));
  EXPECT_EQ(back, "x<&>y\"z'");
}

TEST(Escape, Utf8CharacterReference) {
  std::string out;
  NEX_ASSERT_OK(AppendUnescaped(&out, "&#x20AC;"));  // euro sign
  EXPECT_EQ(out, "\xE2\x82\xAC");
}

TEST(Escape, CharacterReferencesAtTheXmlCharBoundaries) {
  // The edges of XML 1.0's Char production are all accepted.
  std::string out;
  NEX_ASSERT_OK(AppendUnescaped(
      &out, "&#9;&#xA;&#13;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;"
            "&#x10FFFF;&#0065;"));
  EXPECT_EQ(out,
            "\t\n\r \xED\x9F\xBF\xEE\x80\x80\xEF\xBF\xBD"
            "\xF0\x90\x80\x80\xF4\x8F\xBF\xBF"
            "A");
}

// Per-byte reference escaper: the specification the bulk kernels match.
std::string ReferenceEscape(std::string_view in, bool attribute) {
  std::string out;
  for (char c : in) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"':
        out += attribute ? "&quot;" : "\"";
        break;
      default: out.push_back(c);
    }
  }
  return out;
}

TEST(Escape, BulkKernelsMatchPerByteReference) {
  const std::vector<std::string> alphabet = {
      "&", "<", ">", "\"", "'", "a", "z", "0", " ", "\n",
      "\xC3\xA9", "\xE2\x82\xAC", "\xF0\x9F\x98\x80", "\x7F", "\x80"};
  Random rng(42);
  for (int round = 0; round < 2000; ++round) {
    // Lengths straddle the 16- and 8-byte scan widths and their tails.
    std::string input;
    for (uint64_t n = rng.Uniform(80); n > 0; --n) {
      // Mostly clean bytes, so long special-free runs occur too.
      input += rng.Uniform(4) == 0 ? alphabet[rng.Uniform(alphabet.size())]
                                   : alphabet[5 + rng.Uniform(4)];
    }
    std::string text;
    std::string attribute;
    AppendEscapedText(&text, input);
    AppendEscapedAttribute(&attribute, input);
    ASSERT_EQ(text, ReferenceEscape(input, false)) << input;
    ASSERT_EQ(attribute, ReferenceEscape(input, true)) << input;
    for (const std::string* escaped : {&text, &attribute}) {
      std::string back = "prefix";
      NEX_ASSERT_OK(AppendUnescaped(&back, *escaped));
      ASSERT_EQ(back, "prefix" + input);
    }
  }
}

TEST(Escape, MalformedEntitiesFailAnywhere) {
  struct Case {
    std::string entity;
    std::string message;
  };
  const std::vector<Case> cases = {
      {"&", "malformed entity reference"},
      {"&;", "malformed entity reference"},
      {"&amp", "malformed entity reference"},
      {"&bogus;", "unknown entity: &bogus;"},
      {"&Amp;", "unknown entity: &Amp;"},
      {"& amp;", "unknown entity: & amp;"},
      {"&#;", "unknown entity: &#;"},
      {"&#x;", "malformed character reference: &#x;"},
      {"&#xZZ;", "malformed character reference: &#xZZ;"},
      {"&#0;", "malformed character reference: &#0;"},
      {"&#-5;", "malformed character reference: &#-5;"},
      {"&#65a;", "malformed character reference: &#65a;"},
      {"&#1114112;", "malformed character reference: &#1114112;"},
      {"&#x110000;", "malformed character reference: &#x110000;"},
      {"&#xD800;", "malformed character reference: &#xD800;"},
      {"&#xDFFF;", "malformed character reference: &#xDFFF;"},
      {"&#x 41;", "malformed character reference: &#x 41;"},
      {"&#+65;", "malformed character reference: &#+65;"},
      {"&#xFFFE;", "malformed character reference: &#xFFFE;"},
      {"&#1;", "malformed character reference: &#1;"},
      {"&#X41;", "malformed character reference: &#X41;"},
      {"&#99999999999;", "malformed character reference: &#99999999999;"},
  };
  for (const Case& c : cases) {
    for (const std::string& input :
         {c.entity + "xyz", "ab&lt;" + c.entity + "cd", "wxyz" + c.entity}) {
      std::string out;
      Status st = AppendUnescaped(&out, input);
      EXPECT_TRUE(st.IsParseError()) << input;
      EXPECT_EQ(st.message(), c.message) << input;
    }
  }
}

TEST(XmlWriter, BasicDocument) {
  std::string out;
  StringByteSink sink(&out);
  XmlWriter writer(&sink);
  NEX_ASSERT_OK(writer.StartElement("a", {{"k", "v"}}));
  NEX_ASSERT_OK(writer.Text("hello"));
  NEX_ASSERT_OK(writer.StartElement("b"));
  NEX_ASSERT_OK(writer.Finish());  // closes b then a
  EXPECT_EQ(out, "<a k=\"v\">hello<b></b></a>");
}

TEST(XmlWriter, EscapesContentAndAttributes) {
  std::string out;
  StringByteSink sink(&out);
  XmlWriter writer(&sink);
  NEX_ASSERT_OK(writer.StartElement("a", {{"k", "<\">"}}));
  NEX_ASSERT_OK(writer.Text("1 < 2 & 3"));
  NEX_ASSERT_OK(writer.Finish());
  EXPECT_EQ(out, "<a k=\"&lt;&quot;&gt;\">1 &lt; 2 &amp; 3</a>");
}

TEST(XmlWriter, PrettyPrinting) {
  std::string out;
  StringByteSink sink(&out);
  XmlWriterOptions options;
  options.pretty = true;
  XmlWriter writer(&sink, options);
  NEX_ASSERT_OK(writer.StartElement("a"));
  NEX_ASSERT_OK(writer.StartElement("b"));
  NEX_ASSERT_OK(writer.Text("x"));
  NEX_ASSERT_OK(writer.Finish());
  EXPECT_EQ(out, "<a>\n  <b>x</b>\n</a>");
}

TEST(XmlWriter, EndWithoutStartFails) {
  std::string out;
  StringByteSink sink(&out);
  XmlWriter writer(&sink);
  EXPECT_TRUE(writer.EndElement().IsInvalidArgument());
}

TEST(XmlWriter, ParserRoundTrip) {
  // writer -> parser -> writer must be a fixed point.
  const std::string xml =
      "<shop><item id=\"1\" note=\"a&amp;b\">caf&#xE9;</item>"
      "<empty></empty></shop>";
  StringByteSource source(xml);
  SaxParser parser(&source);
  std::string out;
  StringByteSink sink(&out);
  XmlWriter writer(&sink);
  XmlEvent event;
  while (true) {
    auto more = parser.Next(&event);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    NEX_ASSERT_OK(writer.Event(event));
  }
  NEX_ASSERT_OK(writer.Finish());
  EXPECT_EQ(out, "<shop><item id=\"1\" note=\"a&amp;b\">caf\xC3\xA9</item>"
                 "<empty></empty></shop>");
}

TEST(Dom, ParseAndSerialize) {
  auto root = ParseDom("<a x=\"1\"><b>t</b><c/></a>");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ((*root)->name, "a");
  ASSERT_EQ((*root)->children.size(), 2u);
  EXPECT_EQ(SerializeDom(**root), "<a x=\"1\"><b>t</b><c></c></a>");
}

TEST(Dom, BuilderHelpers) {
  auto root = XmlNode::Element("doc");
  XmlNode* child = root->AddElement("item");
  child->SetAttribute("id", "7");
  child->SetAttribute("id", "8");  // overwrite
  child->AddText("payload");
  EXPECT_EQ(SerializeDom(*root), "<doc><item id=\"8\">payload</item></doc>");
  EXPECT_EQ(*child->FindAttribute("id"), "8");
  EXPECT_EQ(child->FindAttribute("nope"), nullptr);
}

TEST(Dom, Metrics) {
  auto root = ParseDom("<a><b><c/><c/><c/></b><b/></a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->SubtreeSize(), 6u);
  EXPECT_EQ((*root)->MaxFanout(), 3u);
  EXPECT_EQ((*root)->Height(), 3);
}

TEST(Dom, EqualsAndClone) {
  auto a = ParseDom("<a x=\"1\"><b>t</b></a>");
  ASSERT_TRUE(a.ok());
  auto b = (*a)->Clone();
  EXPECT_TRUE((*a)->Equals(*b));
  b->children[0]->AddText("extra");
  EXPECT_FALSE((*a)->Equals(*b));
}

TEST(Generator, RandomTreeRespectsShapeBounds) {
  RandomTreeGenerator generator(4, 7, {.seed = 2});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(generator.stats().height, 4);
  EXPECT_LE(generator.stats().max_fanout, 7u);
  EXPECT_GE(generator.stats().max_fanout, 1u);

  auto dom = ParseDom(*xml);
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ((*dom)->Height(), 4);
}

TEST(Generator, DeterministicPerSeed) {
  RandomTreeGenerator a(3, 5, {.seed = 10});
  RandomTreeGenerator b(3, 5, {.seed = 10});
  RandomTreeGenerator c(3, 5, {.seed = 11});
  auto xa = a.GenerateString();
  auto xb = b.GenerateString();
  auto xc = c.GenerateString();
  ASSERT_TRUE(xa.ok() && xb.ok() && xc.ok());
  EXPECT_EQ(*xa, *xb);
  EXPECT_NE(*xa, *xc);
}

TEST(Generator, ShapeGeneratorExactCounts) {
  ShapeGenerator generator({3, 4, 2}, {.seed = 1, .leaf_text = false});
  EXPECT_EQ(generator.ExpectedElements(), 1u + 3u + 12u + 24u);
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(generator.stats().elements, 40u);
  EXPECT_EQ(generator.stats().max_fanout, 4u);
  EXPECT_EQ(generator.stats().height, 4);
}

TEST(Generator, ElementBytesApproximated) {
  ShapeGenerator generator({100}, {.seed = 4, .element_bytes = 150,
                                   .leaf_text = false});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok());
  double avg = static_cast<double>(xml->size()) / 101.0;
  EXPECT_NEAR(avg, 150.0, 15.0);
}

TEST(Generator, FlatTableTwoShape) {
  // The paper's Table 2 height-2 document is a root with N children.
  ShapeGenerator generator({500}, {.seed = 6});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok());
  auto dom = ParseDom(*xml);
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ((*dom)->children.size(), 500u);
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
