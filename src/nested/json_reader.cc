#include "nested/json_reader.h"

#include "xml/escape.h"

namespace nexsort {

namespace {

constexpr size_t kChunk = 8192;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
bool IsJsonNumber(std::string_view s) {
  size_t i = 0;
  auto digits = [&] {
    size_t start = i;
    while (i < s.size() && IsDigit(s[i])) ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (i < s.size() && s[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size();
}

}  // namespace

Status JsonErrorAt(uint64_t offset, std::string_view what) {
  return Status::ParseError("json: " + std::string(what) + " at byte " +
                            std::to_string(offset));
}

Status JsonReader::Fill() {
  if (eof_) return Status::OK();
  if (pos_ > kChunk) {
    buffer_.erase(0, pos_);
    consumed_ += pos_;
    pos_ = 0;
  }
  size_t old_size = buffer_.size();
  buffer_.resize(old_size + kChunk);
  size_t got = 0;
  Status st = source_->Read(buffer_.data() + old_size, kChunk, &got);
  buffer_.resize(old_size + got);
  if (!st.ok()) return st;
  if (got == 0) eof_ = true;
  return Status::OK();
}

Status JsonReader::Ensure(size_t n) {
  while (available() < n && !eof_) RETURN_IF_ERROR(Fill());
  return Status::OK();
}

Status JsonReader::SkipWhitespace() {
  while (true) {
    RETURN_IF_ERROR(Ensure(1));
    if (available() == 0) return Status::OK();
    char c = buffer_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return Status::OK();
    ++pos_;
  }
}

void JsonReader::Open(char kind, Expect next) {
  ++pos_;
  open_.push_back(kind);
  expect_ = next;
}

void JsonReader::Close(JsonEvent* event) {
  ++pos_;
  event->type = open_.back() == '{' ? JsonEvent::Type::kEndObject
                                    : JsonEvent::Type::kEndArray;
  open_.pop_back();
  ValueDone();
}

void JsonReader::ValueDone() {
  expect_ = open_.empty() ? Expect::kNothing : Expect::kCommaOrClose;
}

Status JsonReader::Next(JsonEvent* event) {
  event->text.clear();
  while (true) {
    RETURN_IF_ERROR(SkipWhitespace());
    event->offset = offset();
    if (available() == 0) {
      if (expect_ != Expect::kNothing) {
        return JsonErrorAt(offset(), "unexpected end");
      }
      event->type = JsonEvent::Type::kEnd;
      return Status::OK();
    }
    const char c = buffer_[pos_];
    const bool in_object = !open_.empty() && open_.back() == '{';
    switch (expect_) {
      case Expect::kNothing:
        return JsonErrorAt(offset(), "trailing content after document");
      case Expect::kColon:
        if (c != ':') return JsonErrorAt(offset(), "expected ':'");
        ++pos_;
        expect_ = Expect::kValue;
        continue;
      case Expect::kCommaOrClose:
        if (c == ',') {
          ++pos_;
          expect_ = in_object ? Expect::kKey : Expect::kValue;
          continue;
        }
        if (c == (in_object ? '}' : ']')) {
          Close(event);
          return Status::OK();
        }
        return JsonErrorAt(offset(), in_object ? "expected ',' or '}'"
                                               : "expected ',' or ']'");
      case Expect::kKeyOrClose:
        if (c == '}') {
          Close(event);
          return Status::OK();
        }
        [[fallthrough]];
      case Expect::kKey:
        if (c != '"') return JsonErrorAt(offset(), "expected member name");
        RETURN_IF_ERROR(ReadString(&event->text));
        event->type = JsonEvent::Type::kKey;
        expect_ = Expect::kColon;
        return Status::OK();
      case Expect::kItemOrClose:
        if (c == ']') {
          Close(event);
          return Status::OK();
        }
        [[fallthrough]];
      case Expect::kValue:
        return ReadValue(event);
    }
  }
}

Status JsonReader::ReadValue(JsonEvent* event) {
  const char c = buffer_[pos_];
  switch (c) {
    case '{':
      Open('{', Expect::kKeyOrClose);
      event->type = JsonEvent::Type::kBeginObject;
      return Status::OK();
    case '[':
      Open('[', Expect::kItemOrClose);
      event->type = JsonEvent::Type::kBeginArray;
      return Status::OK();
    case '"':
      RETURN_IF_ERROR(ReadString(&event->text));
      event->type = JsonEvent::Type::kString;
      break;
    case 't':
      RETURN_IF_ERROR(ReadLiteral("true"));
      event->type = JsonEvent::Type::kTrue;
      break;
    case 'f':
      RETURN_IF_ERROR(ReadLiteral("false"));
      event->type = JsonEvent::Type::kFalse;
      break;
    case 'n':
      RETURN_IF_ERROR(ReadLiteral("null"));
      event->type = JsonEvent::Type::kNull;
      break;
    case '}':
    case ']':
    case ',':
    case ':':
      return JsonErrorAt(offset(), "expected value");
    default:
      if (c != '-' && !IsDigit(c)) {
        return JsonErrorAt(offset(), "unexpected character");
      }
      RETURN_IF_ERROR(ReadNumber(&event->text));
      event->type = JsonEvent::Type::kNumber;
      break;
  }
  ValueDone();
  return Status::OK();
}

Status JsonReader::ReadLiteral(std::string_view word) {
  RETURN_IF_ERROR(Ensure(word.size()));
  if (available() < word.size() ||
      std::string_view(buffer_.data() + pos_, word.size()) != word) {
    return JsonErrorAt(offset(), "malformed literal");
  }
  pos_ += word.size();
  return Status::OK();
}

Status JsonReader::ReadNumber(std::string* out) {
  // Take the longest run of number bytes, then check it whole: valid JSON
  // never follows a number with one of these bytes, so "01" or "1.e5" is
  // reported as one malformed number rather than two tokens.
  const uint64_t start = offset();
  while (true) {
    RETURN_IF_ERROR(Ensure(1));
    if (available() == 0) break;
    char c = buffer_[pos_];
    if (!IsDigit(c) && c != '-' && c != '+' && c != '.' && c != 'e' &&
        c != 'E') {
      break;
    }
    out->push_back(c);
    ++pos_;
  }
  if (!IsJsonNumber(*out)) return JsonErrorAt(start, "malformed number");
  return Status::OK();
}

Status JsonReader::ReadString(std::string* out) {
  const uint64_t start = offset();
  ++pos_;  // opening quote
  while (true) {
    RETURN_IF_ERROR(Ensure(1));
    if (available() == 0) return JsonErrorAt(start, "unterminated string");
    // Copy the run of plain bytes up to the next quote, backslash or
    // control character in one append.
    size_t end = pos_;
    while (end < buffer_.size()) {
      unsigned char c = static_cast<unsigned char>(buffer_[end]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++end;
    }
    out->append(buffer_, pos_, end - pos_);
    pos_ = end;
    if (available() == 0) continue;
    char c = buffer_[pos_];
    if (c == '"') {
      ++pos_;
      return Status::OK();
    }
    if (c != '\\') return JsonErrorAt(offset(), "raw control character");
    RETURN_IF_ERROR(ReadEscape(out));
  }
}

Status JsonReader::ReadEscape(std::string* out) {
  const uint64_t start = offset();
  RETURN_IF_ERROR(Ensure(2));
  if (available() < 2) return JsonErrorAt(start, "dangling escape");
  char c = buffer_[pos_ + 1];
  pos_ += 2;
  switch (c) {
    case '"': out->push_back('"'); return Status::OK();
    case '\\': out->push_back('\\'); return Status::OK();
    case '/': out->push_back('/'); return Status::OK();
    case 'b': out->push_back('\b'); return Status::OK();
    case 'f': out->push_back('\f'); return Status::OK();
    case 'n': out->push_back('\n'); return Status::OK();
    case 'r': out->push_back('\r'); return Status::OK();
    case 't': out->push_back('\t'); return Status::OK();
    case 'u': break;
    default: return JsonErrorAt(start, "unknown escape");
  }
  uint32_t code = 0;
  RETURN_IF_ERROR(ReadHex4(&code));
  if (code >= 0xDC00 && code <= 0xDFFF) {
    return JsonErrorAt(start, "unpaired low surrogate");
  }
  if (code >= 0xD800 && code <= 0xDBFF) {
    // A high surrogate must be followed by an escaped low surrogate; the
    // pair combines into one scalar value.
    RETURN_IF_ERROR(Ensure(6));
    uint32_t low = 0;
    if (available() < 6 || buffer_[pos_] != '\\' || buffer_[pos_ + 1] != 'u') {
      return JsonErrorAt(start, "unpaired high surrogate");
    }
    pos_ += 2;
    RETURN_IF_ERROR(ReadHex4(&low));
    if (low < 0xDC00 || low > 0xDFFF) {
      return JsonErrorAt(start, "unpaired high surrogate");
    }
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  }
  AppendUtf8(out, code);
  return Status::OK();
}

Status JsonReader::ReadHex4(uint32_t* out) {
  RETURN_IF_ERROR(Ensure(4));
  uint32_t value = 0;
  for (size_t i = 0; i < 4; ++i) {
    if (i == available()) return JsonErrorAt(offset() + i, "unexpected end");
    char c = buffer_[pos_ + i];
    value <<= 4;
    if (IsDigit(c)) value |= c - '0';
    else if (c >= 'a' && c <= 'f') value |= c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') value |= c - 'A' + 10;
    else return JsonErrorAt(offset() + i, "bad hex digit");
  }
  pos_ += 4;
  *out = value;
  return Status::OK();
}

}  // namespace nexsort
