#include "xml/escape.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace nexsort {

namespace {

constexpr uint64_t kOnes = 0x0101010101010101ULL;
constexpr uint64_t kHighs = 0x8080808080808080ULL;

// Nonzero iff some byte of `word` equals the byte broadcast in `pattern`.
constexpr uint64_t HasByte(uint64_t word, uint64_t pattern) {
  uint64_t x = word ^ pattern;
  return (x - kOnes) & ~x & kHighs;
}

// Entity for a byte the escaper must replace, or nullptr to copy it.
const char* Replacement(char c, bool attribute) {
  switch (c) {
    case '&': return "&amp;";
    case '<': return "&lt;";
    case '>': return "&gt;";
    case '"': return attribute ? "&quot;" : nullptr;
    default: return nullptr;
  }
}

// First byte in [p, end) the escaper must replace, or end. Clean bytes
// are skipped sixteen at a time with SSE2 where available, then eight at a
// time (a word with none of the special bytes), then one at a time.
template <bool kAttribute>
const char* FindSpecial(const char* p, const char* end) {
#if defined(__SSE2__)
  const __m128i amp = _mm_set1_epi8('&');
  const __m128i lt = _mm_set1_epi8('<');
  const __m128i gt = _mm_set1_epi8('>');
  const __m128i quot = _mm_set1_epi8('"');
  while (end - p >= 16) {
    __m128i chunk = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    __m128i hits = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(chunk, amp), _mm_cmpeq_epi8(chunk, lt)),
        _mm_cmpeq_epi8(chunk, gt));
    if constexpr (kAttribute) {
      hits = _mm_or_si128(hits, _mm_cmpeq_epi8(chunk, quot));
    }
    int mask = _mm_movemask_epi8(hits);
    if (mask != 0) return p + __builtin_ctz(static_cast<unsigned>(mask));
    p += 16;
  }
#endif
  while (end - p >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    uint64_t special = HasByte(word, '&' * kOnes) |
                       HasByte(word, '<' * kOnes) | HasByte(word, '>' * kOnes);
    if constexpr (kAttribute) special |= HasByte(word, '"' * kOnes);
    if (special != 0) break;  // located byte by byte below
    p += 8;
  }
  while (p != end && Replacement(*p, kAttribute) == nullptr) ++p;
  return p;
}

// Append `in` with the XML-special bytes replaced, clean runs in bulk.
template <bool kAttribute>
void AppendEscaped(std::string* out, std::string_view in) {
  const char* p = in.data();
  const char* const end = p + in.size();
  while (true) {
    const char* special = FindSpecial<kAttribute>(p, end);
    out->append(p, special - p);
    if (special == end) return;
    out->append(Replacement(*special, kAttribute));
    p = special + 1;
  }
}

// Append the UTF-8 encoding of `cp` to *out.
void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

void AppendEscapedText(std::string* out, std::string_view text) {
  AppendEscaped</*kAttribute=*/false>(out, text);
}

void AppendEscapedAttribute(std::string* out, std::string_view value) {
  AppendEscaped</*kAttribute=*/true>(out, value);
}

Status AppendUnescaped(
    std::string* out, std::string_view input,
    const std::unordered_map<std::string, std::string>* custom) {
  size_t i = 0;
  while (i < input.size()) {
    size_t amp = input.find('&', i);
    if (amp == std::string_view::npos) {
      out->append(input.substr(i));
      return Status::OK();
    }
    out->append(input.substr(i, amp - i));
    i = amp;
    size_t end = input.find(';', i + 1);
    if (end == std::string_view::npos || end == i + 1) {
      return Status::ParseError("malformed entity reference");
    }
    std::string_view entity = input.substr(i + 1, end - i - 1);
    if (entity == "amp") {
      out->push_back('&');
    } else if (entity == "lt") {
      out->push_back('<');
    } else if (entity == "gt") {
      out->push_back('>');
    } else if (entity == "apos") {
      out->push_back('\'');
    } else if (entity == "quot") {
      out->push_back('"');
    } else if (entity.size() > 1 && entity[0] == '#') {
      std::string digits(entity.substr(1));
      char* endp = nullptr;
      long cp = 0;
      if (digits[0] == 'x' || digits[0] == 'X') {
        cp = std::strtol(digits.c_str() + 1, &endp, 16);
      } else {
        cp = std::strtol(digits.c_str(), &endp, 10);
      }
      if (endp == nullptr || *endp != '\0' || cp <= 0 || cp > 0x10FFFF) {
        return Status::ParseError("malformed character reference: &" +
                                  std::string(entity) + ";");
      }
      AppendUtf8(out, static_cast<uint32_t>(cp));
    } else {
      if (custom != nullptr) {
        auto it = custom->find(std::string(entity));
        if (it != custom->end()) {
          out->append(it->second);
          i = end + 1;
          continue;
        }
      }
      return Status::ParseError("unknown entity: &" + std::string(entity) +
                                ";");
    }
    i = end + 1;
  }
  return Status::OK();
}

}  // namespace nexsort
