// XML text/attribute escaping and entity decoding.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/status.h"

namespace nexsort {

/// Append `text` to *out with &, <, > escaped (element content).
void AppendEscapedText(std::string* out, std::string_view text);

/// Append `value` to *out with &, <, >, " escaped (attribute values, which
/// the writer always double-quotes).
void AppendEscapedAttribute(std::string* out, std::string_view value);

/// Append the UTF-8 encoding of the scalar value `cp` to *out.
void AppendUtf8(std::string* out, uint32_t cp);

/// Decode the five predefined entities and decimal/hex character references
/// in `input`, appending to *out. ParseError on an unknown or malformed
/// entity; a character reference must be `&#` digits `;` or `&#x` hex
/// digits `;` naming a code point in XML 1.0's Char production. `custom`
/// optionally supplies user-defined entities (from a DOCTYPE internal
/// subset); values are substituted verbatim.
[[nodiscard]] Status AppendUnescaped(
    std::string* out, std::string_view input,
    const std::unordered_map<std::string, std::string>* custom = nullptr);

}  // namespace nexsort
