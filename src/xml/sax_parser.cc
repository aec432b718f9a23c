#include "xml/sax_parser.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "xml/escape.h"

namespace nexsort {

namespace {
constexpr size_t kChunkSize = 16 * 1024;

// Byte classes of the scanner, looked up through one table so runs of
// name or whitespace bytes are consumed without per-byte predicate calls.
constexpr uint8_t kNameStartClass = 1;  // [A-Za-z_:]
constexpr uint8_t kNameClass = 2;       // [A-Za-z0-9_:.-]
constexpr uint8_t kSpaceClass = 4;      // [ \t\n\r]

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c = 0; c < 256; ++c) {
    bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    bool digit = c >= '0' && c <= '9';
    bool name_start = alpha || c == '_' || c == ':';
    bool name = name_start || digit || c == '-' || c == '.';
    bool space = c == ' ' || c == '\t' || c == '\n' || c == '\r';
    classes[c] = static_cast<uint8_t>((name_start ? kNameStartClass : 0) |
                                      (name ? kNameClass : 0) |
                                      (space ? kSpaceClass : 0));
  }
  return classes;
}
constexpr std::array<uint8_t, 256> kCharClasses = MakeCharClasses();

bool HasClass(char c, uint8_t mask) {
  return (kCharClasses[static_cast<unsigned char>(c)] & mask) != 0;
}
bool IsNameStartChar(char c) { return HasClass(c, kNameStartClass); }
bool IsNameChar(char c) { return HasClass(c, kNameClass); }
bool IsSpace(char c) { return HasClass(c, kSpaceClass); }
}  // namespace

SaxParser::SaxParser(ByteSource* source, SaxOptions options)
    : source_(source), options_(options) {}

Status SaxParser::Fill() {
  if (source_eof_) return Status::OK();
  // Compact consumed prefix so the buffer stays bounded.
  if (pos_ > kChunkSize) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  size_t old_size = buffer_.size();
  buffer_.resize(old_size + kChunkSize);
  size_t got = 0;
  Status st = source_->Read(buffer_.data() + old_size, kChunkSize, &got);
  buffer_.resize(old_size + got);
  if (!st.ok()) return st;
  if (got == 0) source_eof_ = true;
  return Status::OK();
}

Status SaxParser::Ensure(size_t n) {
  while (Available() < n && !source_eof_) RETURN_IF_ERROR(Fill());
  return Status::OK();
}

bool SaxParser::AtEof() { return Available() == 0 && source_eof_; }

StatusOr<size_t> SaxParser::FindInBuffer(std::string_view needle) {
  // Track the search start relative to pos_, since Fill() may compact the
  // buffer and shift absolute offsets.
  size_t rel_from = 0;
  while (true) {
    size_t found = buffer_.find(needle, pos_ + rel_from);
    if (found != std::string::npos) return found - pos_;
    if (source_eof_) return Status::NotFound("delimiter not found");
    // Keep a needle-sized overlap so matches spanning chunk edges are seen.
    rel_from = Available() > needle.size() ? Available() - needle.size() : 0;
    RETURN_IF_ERROR(Fill());
  }
}

StatusOr<size_t> SaxParser::RunLength(uint8_t mask, size_t from) {
  size_t len = from;
  while (true) {
    const char* data = buffer_.data() + pos_;
    size_t available = Available();
    while (len < available && HasClass(data[len], mask)) ++len;
    // Refill only when the run reaches the end of the buffered window.
    if (len < available || source_eof_) return len;
    RETURN_IF_ERROR(Fill());
  }
}

Status SaxParser::SkipWhitespace() {
  if (Available() > 0 && !IsSpace(PeekChar())) return Status::OK();
  ASSIGN_OR_RETURN(size_t len, RunLength(kSpaceClass, 0));
  Advance(len);
  return Status::OK();
}

StatusOr<bool> SaxParser::Next(XmlEvent* event) {
  if (pending_end_) {
    pending_end_ = false;
    event->type = XmlEventType::kEndElement;
    event->name = std::move(pending_end_name_);
    event->attributes.clear();
    event->text.clear();
    --depth_;
    return true;
  }
  while (true) {
    if (depth_ == 0) {
      // Between/outside root elements only whitespace and markup allowed.
      RETURN_IF_ERROR(SkipWhitespace());
    } else {
      RETURN_IF_ERROR(Ensure(1));
    }
    if (AtEof()) {
      if (depth_ != 0) return Status::ParseError("unexpected end of input");
      if (!seen_root_) return Status::ParseError("empty document");
      return false;
    }
    bool produced = false;
    if (PeekChar() == '<') {
      RETURN_IF_ERROR(ParseMarkup(event, &produced));
    } else {
      if (depth_ == 0) {
        return Status::ParseError("text outside the root element");
      }
      RETURN_IF_ERROR(ParseText(event, &produced));
    }
    if (produced) return true;
  }
}

Status SaxParser::ParseMarkup(XmlEvent* event, bool* produced) {
  RETURN_IF_ERROR(Ensure(2));
  if (Available() < 2) return Status::ParseError("truncated markup");
  char c = buffer_[pos_ + 1];
  if (c == '/') {
    RETURN_IF_ERROR(ParseEndTag(event));
    *produced = true;
    return Status::OK();
  }
  if (c == '?') return ParseProcessingInstruction();
  if (c == '!') {
    RETURN_IF_ERROR(Ensure(9));
    std::string_view view(buffer_.data() + pos_,
                          std::min<size_t>(Available(), 9));
    if (view.substr(0, 4) == "<!--") return ParseComment();
    if (view.substr(0, 9) == "<![CDATA[") {
      RETURN_IF_ERROR(ParseCdata(event));
      *produced = true;
      return Status::OK();
    }
    if (view.substr(0, 2) == "<!") return ParseDoctype();
    return Status::ParseError("malformed markup declaration");
  }
  if (!IsNameStartChar(c)) {
    return Status::ParseError("malformed tag");
  }
  if (depth_ == 0 && seen_root_) {
    return Status::ParseError("multiple root elements");
  }
  RETURN_IF_ERROR(ParseStartTag(event));
  *produced = true;
  return Status::OK();
}

Status SaxParser::ParseName(std::string* name) {
  RETURN_IF_ERROR(Ensure(1));
  if (AtEof() || !IsNameStartChar(PeekChar())) {
    return Status::ParseError("expected name");
  }
  ASSIGN_OR_RETURN(size_t len, RunLength(kNameClass, 1));
  name->assign(buffer_.data() + pos_, len);
  Advance(len);
  return Status::OK();
}

Status SaxParser::ParseAttributes(XmlEvent* event, bool* self_closing) {
  // Attribute slots of the previous event are reused, so their strings
  // keep their capacity; the vector is trimmed to this tag's count.
  std::vector<XmlAttribute>& attributes = event->attributes;
  size_t count = 0;
  *self_closing = false;
  while (true) {
    RETURN_IF_ERROR(SkipWhitespace());
    RETURN_IF_ERROR(Ensure(2));
    if (AtEof()) return Status::ParseError("truncated start tag");
    char c = PeekChar();
    if (c == '>') {
      Advance(1);
      break;
    }
    if (c == '/') {
      if (Available() < 2 || buffer_[pos_ + 1] != '>') {
        return Status::ParseError("malformed self-closing tag");
      }
      Advance(2);
      *self_closing = true;
      break;
    }
    if (count == attributes.size()) attributes.emplace_back();
    XmlAttribute& attr = attributes[count++];
    RETURN_IF_ERROR(ParseName(&attr.name));
    RETURN_IF_ERROR(SkipWhitespace());
    RETURN_IF_ERROR(Ensure(1));
    if (AtEof() || PeekChar() != '=') {
      return Status::ParseError("expected '=' after attribute name");
    }
    Advance(1);
    RETURN_IF_ERROR(SkipWhitespace());
    RETURN_IF_ERROR(Ensure(1));
    if (AtEof() || (PeekChar() != '"' && PeekChar() != '\'')) {
      return Status::ParseError("expected quoted attribute value");
    }
    char quote = PeekChar();
    Advance(1);
    auto found = FindInBuffer(std::string_view(&quote, 1));
    if (!found.ok()) {
      return Status::ParseError("unterminated attribute value");
    }
    size_t offset = found.value();
    std::string_view raw(buffer_.data() + pos_, offset);
    attr.value.clear();
    RETURN_IF_ERROR(AppendUnescaped(&attr.value, raw, &entities_));
    Advance(offset + 1);
  }
  attributes.resize(count);
  return Status::OK();
}

Status SaxParser::ParseStartTag(XmlEvent* event) {
  Advance(1);  // '<'
  event->type = XmlEventType::kStartElement;
  event->text.clear();
  RETURN_IF_ERROR(ParseName(&event->name));
  bool self_closing = false;
  RETURN_IF_ERROR(ParseAttributes(event, &self_closing));
  seen_root_ = true;
  ++depth_;
  if (self_closing) {
    pending_end_ = true;
    pending_end_name_ = event->name;
  } else if (options_.check_tag_names) {
    open_tags_.push_back(event->name);
  }
  return Status::OK();
}

Status SaxParser::ParseEndTag(XmlEvent* event) {
  Advance(2);  // '</'
  event->type = XmlEventType::kEndElement;
  event->attributes.clear();
  event->text.clear();
  RETURN_IF_ERROR(ParseName(&event->name));
  RETURN_IF_ERROR(SkipWhitespace());
  RETURN_IF_ERROR(Ensure(1));
  if (AtEof() || PeekChar() != '>') {
    return Status::ParseError("malformed end tag </" + event->name);
  }
  Advance(1);
  if (depth_ == 0) return Status::ParseError("end tag with no open element");
  if (options_.check_tag_names) {
    if (open_tags_.back() != event->name) {
      return Status::ParseError("mismatched end tag </" + event->name +
                                ">, expected </" + open_tags_.back() + ">");
    }
    open_tags_.pop_back();
  }
  --depth_;
  return Status::OK();
}

Status SaxParser::ParseComment() {
  Advance(4);  // '<!--'
  auto found = FindInBuffer("-->");
  if (!found.ok()) return Status::ParseError("unterminated comment");
  Advance(found.value() + 3);
  return Status::OK();
}

Status SaxParser::ParseProcessingInstruction() {
  Advance(2);  // '<?'
  auto found = FindInBuffer("?>");
  if (!found.ok()) {
    return Status::ParseError("unterminated processing instruction");
  }
  Advance(found.value() + 2);
  return Status::OK();
}

Status SaxParser::ParseDoctype() {
  // Scan to the closing '>', honouring one level of internal-subset
  // brackets: <!DOCTYPE name [ ... ]>. The subset's <!ENTITY name "value">
  // declarations are harvested so the document may reference them.
  Advance(2);  // '<!'
  std::string body;
  int bracket_depth = 0;
  while (true) {
    RETURN_IF_ERROR(Ensure(1));
    if (AtEof()) return Status::ParseError("unterminated DOCTYPE");
    char c = PeekChar();
    Advance(1);
    if (c == '[') ++bracket_depth;
    if (c == ']') --bracket_depth;
    if (c == '>' && bracket_depth == 0) break;
    if (body.size() < 1 << 20) body.push_back(c);
  }
  // Harvest entity declarations.
  size_t at = 0;
  while ((at = body.find("<!ENTITY", at)) != std::string::npos) {
    at += 8;
    while (at < body.size() && IsSpace(body[at])) ++at;
    size_t name_start = at;
    while (at < body.size() && IsNameChar(body[at])) ++at;
    std::string name = body.substr(name_start, at - name_start);
    while (at < body.size() && IsSpace(body[at])) ++at;
    if (name.empty() || at >= body.size() ||
        (body[at] != '"' && body[at] != '\'')) {
      continue;  // parameter/external entities: skipped, not supported
    }
    char quote = body[at++];
    size_t value_end = body.find(quote, at);
    if (value_end == std::string::npos) {
      return Status::ParseError("unterminated entity value");
    }
    std::string raw = body.substr(at, value_end - at);
    at = value_end + 1;
    // Entity values may themselves use character references.
    std::string value;
    RETURN_IF_ERROR(AppendUnescaped(&value, raw, &entities_));
    entities_[name] = std::move(value);
  }
  return Status::OK();
}

Status SaxParser::ParseCdata(XmlEvent* event) {
  Advance(9);  // '<![CDATA['
  auto found = FindInBuffer("]]>");
  if (!found.ok()) return Status::ParseError("unterminated CDATA section");
  event->type = XmlEventType::kText;
  event->name.clear();
  event->attributes.clear();
  event->text.assign(buffer_.data() + pos_, found.value());
  Advance(found.value() + 3);
  return Status::OK();
}

Status SaxParser::ParseText(XmlEvent* event, bool* produced) {
  // The text runs to the next '<' (or end of input); search the buffered
  // window for it and refill only when the window holds none.
  size_t len = 0;
  while (true) {
    const char* data = buffer_.data() + pos_;
    const void* lt = std::memchr(data + len, '<', Available() - len);
    if (lt != nullptr) {
      len = static_cast<size_t>(static_cast<const char*>(lt) - data);
      break;
    }
    len = Available();
    if (source_eof_) break;
    RETURN_IF_ERROR(Fill());
  }
  std::string_view raw(buffer_.data() + pos_, len);
  if (options_.skip_whitespace_text &&
      std::all_of(raw.begin(), raw.end(), IsSpace)) {
    Advance(len);
    *produced = false;
    return Status::OK();
  }
  event->type = XmlEventType::kText;
  event->name.clear();
  event->attributes.clear();
  event->text.clear();
  RETURN_IF_ERROR(AppendUnescaped(&event->text, raw, &entities_));
  Advance(len);
  *produced = true;
  return Status::OK();
}

}  // namespace nexsort
