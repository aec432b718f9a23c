// Event-based (SAX-style) pull parser, the scanner behind line 3 of the
// paper's Figure 4. It reads from any ByteSource — an in-memory string or a
// block stream on a device, in which case the scan incurs exactly the
// O(N/B) "reading the input" I/Os of the paper's cost breakdown.
//
// Supported XML subset: elements, attributes (single- or double-quoted),
// character data with the predefined entities, numeric character
// references, and custom entities declared in a DOCTYPE internal subset,
// CDATA sections, comments, processing instructions, and the XML
// declaration. This covers everything the paper's workloads (data-centric
// XML) use.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "extmem/stream.h"
#include "util/status.h"
#include "xml/token.h"

namespace nexsort {

struct SaxOptions {
  /// Drop text events that are entirely whitespace (inter-element
  /// indentation). Data-centric sorting treats such nodes as formatting.
  bool skip_whitespace_text = true;

  /// Verify that end tags match their start tags. Costs memory proportional
  /// to document depth; with it off only nesting depth is tracked.
  bool check_tag_names = true;
};

/// Streaming pull parser producing XmlEvents.
class SaxParser {
 public:
  explicit SaxParser(ByteSource* source, SaxOptions options = {});

  /// Produce the next event. Returns false at clean end of input (all
  /// elements closed), true if *event was filled. ParseError on malformed
  /// input, or any Status the underlying source fails with.
  [[nodiscard]] StatusOr<bool> Next(XmlEvent* event);

  /// Nesting depth after the last event (root start tag => 1).
  int depth() const { return depth_; }

  /// Bytes consumed from the source so far.
  uint64_t bytes_consumed() const { return consumed_; }

 private:
  // Buffer management --------------------------------------------------
  [[nodiscard]] Status Fill();                  // read another chunk from the source
  [[nodiscard]] Status Ensure(size_t n);        // buffer at least n bytes or hit EOF
  bool AtEof();                   // no buffered bytes and source drained
  char PeekChar() const { return buffer_[pos_]; }
  size_t Available() const { return buffer_.size() - pos_; }
  void Advance(size_t n) { pos_ += n; consumed_ += n; }
  // Find `needle` in the buffered data starting at pos_, filling as needed;
  // returns its offset relative to pos_ or NotFound at EOF.
  [[nodiscard]] StatusOr<size_t> FindInBuffer(std::string_view needle);
  // Length of the run of bytes in character class `mask` (see
  // sax_parser.cc) starting `from` bytes past pos_, filling as needed.
  [[nodiscard]] StatusOr<size_t> RunLength(uint8_t mask, size_t from);

  // Grammar productions -------------------------------------------------
  [[nodiscard]] Status SkipWhitespace();
  [[nodiscard]] Status ParseMarkup(XmlEvent* event, bool* produced);
  [[nodiscard]] Status ParseStartTag(XmlEvent* event);
  [[nodiscard]] Status ParseEndTag(XmlEvent* event);
  [[nodiscard]] Status ParseComment();
  [[nodiscard]] Status ParseProcessingInstruction();
  [[nodiscard]] Status ParseDoctype();
  [[nodiscard]] Status ParseCdata(XmlEvent* event);
  [[nodiscard]] Status ParseText(XmlEvent* event, bool* produced);
  [[nodiscard]] Status ParseName(std::string* name);
  [[nodiscard]] Status ParseAttributes(XmlEvent* event, bool* self_closing);

  ByteSource* source_;
  SaxOptions options_;
  std::string buffer_;
  size_t pos_ = 0;
  bool source_eof_ = false;
  uint64_t consumed_ = 0;

  int depth_ = 0;
  bool seen_root_ = false;
  std::vector<std::string> open_tags_;  // only if check_tag_names
  bool pending_end_ = false;            // self-closing tag: emit end next
  std::string pending_end_name_;
  std::unordered_map<std::string, std::string> entities_;  // DOCTYPE subset
};

}  // namespace nexsort
