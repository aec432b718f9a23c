// LEB128-style variable-length integer coding, used throughout the sorted-run
// and stack record formats to keep on-disk representations compact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace nexsort {

/// Append a varint-encoded value to *dst.
void PutVarint64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);

/// Append a length-prefixed string to *dst.
void PutLengthPrefixed(std::string* dst, std::string_view value);

/// Inline decoders for hot paths: each returns false exactly where its
/// Get* counterpart below returns Corruption, and advances *input only on
/// success.
inline bool TryGetVarint64(std::string_view* input, uint64_t* value) {
  uint64_t result = 0;
  size_t i = 0;
  for (int shift = 0; shift <= 63; shift += 7, ++i) {
    if (i >= input->size()) return false;
    uint8_t byte = static_cast<uint8_t>((*input)[i]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      input->remove_prefix(i + 1);
      *value = result;
      return true;
    }
  }
  return false;
}

inline bool TryGetVarint32(std::string_view* input, uint32_t* value) {
  std::string_view rest = *input;
  uint64_t wide = 0;
  if (!TryGetVarint64(&rest, &wide) || wide > UINT32_MAX) return false;
  *input = rest;
  *value = static_cast<uint32_t>(wide);
  return true;
}

inline bool TryGetLengthPrefixed(std::string_view* input,
                                 std::string_view* value) {
  std::string_view rest = *input;
  uint64_t len = 0;
  if (!TryGetVarint64(&rest, &len) || rest.size() < len) return false;
  *value = rest.substr(0, len);
  *input = rest.substr(len);
  return true;
}

/// Decode a varint from the front of *input, advancing it past the encoding.
/// Returns Corruption if the input is truncated or overlong.
[[nodiscard]] Status GetVarint64(std::string_view* input, uint64_t* value);
[[nodiscard]] Status GetVarint32(std::string_view* input, uint32_t* value);

/// Decode a length-prefixed string from the front of *input.
[[nodiscard]] Status GetLengthPrefixed(std::string_view* input, std::string_view* value);

/// Number of bytes PutVarint64 would append for `value`.
int VarintLength(uint64_t value);

}  // namespace nexsort
