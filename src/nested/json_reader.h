// The one JSON reader in the tree: a streaming pull parser over a
// ByteSource. JsonSorter (nested/json.h) translates its events into the
// element-tree encoding, and JsonValue::Parse (service/wire.h) builds the
// service's request DOM from them, so the two can never disagree about
// which text is JSON.
//
// Strict RFC 8259:
//   - numbers must match the grammar (no leading zeros, no bare '.', no
//     '+' sign); the event keeps the lexeme exactly as written;
//   - strings may not contain raw control characters (< 0x20);
//   - \u escapes must form valid scalar values: an unpaired high or low
//     surrogate is an error;
//   - exactly one value per document; trailing non-whitespace is an error.
// Bytes >= 0x80 inside strings are copied through unchecked.
//
// Every error is a ParseError of the form "json: <what> at byte N", N
// counted from the start of the input. The reader keeps one byte per open
// container, so nesting depth is bounded only by the input; consumers that
// need a bound (JsonValue caps it at 64) impose their own.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/stream.h"
#include "util/status.h"

namespace nexsort {

/// One step through a JSON document, in document order.
struct JsonEvent {
  enum class Type {
    kBeginObject, kEndObject, kBeginArray, kEndArray,
    kKey,      // text = decoded member name; the member's value follows
    kString,   // text = decoded value (UTF-8)
    kNumber,   // text = the number exactly as written
    kTrue, kFalse, kNull,
    kEnd,      // the document is complete
  };
  Type type = Type::kEnd;
  std::string text;
  uint64_t offset = 0;  // input byte where the event's token starts
};

/// The ParseError every JSON entry point reports: "json: <what> at byte N".
[[nodiscard]] Status JsonErrorAt(uint64_t offset, std::string_view what);

/// Pull parser: each Next() yields the next event or the first error.
/// After kEnd, Next() keeps returning kEnd; after an error the reader must
/// not be used further.
class JsonReader {
 public:
  /// `source` is not owned and must outlive the reader.
  explicit JsonReader(ByteSource* source) : source_(source) {}

  [[nodiscard]] Status Next(JsonEvent* event);

  /// Containers open after the last event.
  size_t depth() const { return open_.size(); }

 private:
  // What the grammar allows at the next non-whitespace byte.
  enum class Expect {
    kValue,
    kItemOrClose,    // just after '['
    kKeyOrClose,     // just after '{'
    kKey,            // after ',' in an object
    kColon,
    kCommaOrClose,   // after a value inside a container
    kNothing,        // the top-level value is complete
  };

  [[nodiscard]] Status Fill();
  [[nodiscard]] Status Ensure(size_t n);
  [[nodiscard]] Status SkipWhitespace();
  size_t available() const { return buffer_.size() - pos_; }
  uint64_t offset() const { return consumed_ + pos_; }

  [[nodiscard]] Status ReadValue(JsonEvent* event);
  [[nodiscard]] Status ReadLiteral(std::string_view word);
  [[nodiscard]] Status ReadNumber(std::string* out);
  [[nodiscard]] Status ReadString(std::string* out);
  [[nodiscard]] Status ReadEscape(std::string* out);
  [[nodiscard]] Status ReadHex4(uint32_t* out);
  void Open(char kind, Expect next);
  void Close(JsonEvent* event);
  void ValueDone();

  ByteSource* source_;
  std::string buffer_;
  size_t pos_ = 0;
  uint64_t consumed_ = 0;  // bytes dropped from the front of buffer_
  bool eof_ = false;
  std::vector<char> open_;  // '{' or '[' per open container
  Expect expect_ = Expect::kValue;
};

}  // namespace nexsort
