#include "util/string_util.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace nexsort {

std::vector<std::string_view> Split(std::string_view input, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(input.substr(start));
      break;
    }
    out.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool ParseNumber(std::string_view s, double* value) {
  if (s.empty()) return false;
  // Fast path: a plain decimal integer of at most 15 digits, which a double
  // holds exactly — the value strtod returns for it too.
  size_t digits_from = s[0] == '-' ? 1 : 0;
  if (s.size() > digits_from && s.size() - digits_from <= 15) {
    uint64_t integer = 0;
    size_t i = digits_from;
    for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
      integer = integer * 10 + static_cast<uint64_t>(s[i] - '0');
    }
    if (i == s.size()) {
      double magnitude = static_cast<double>(integer);
      *value = digits_from == 1 ? -magnitude : magnitude;
      return true;
    }
  }
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *value = v;
  return true;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  }
  return buf;
}

std::string WithCommas(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return {out.rbegin(), out.rend()};
}

}  // namespace nexsort
