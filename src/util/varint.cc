#include "util/varint.h"

namespace nexsort {

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutVarint32(std::string* dst, uint32_t value) {
  PutVarint64(dst, value);
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

Status GetVarint64(std::string_view* input, uint64_t* value) {
  if (TryGetVarint64(input, value)) return Status::OK();
  // Ten bytes all carrying the continuation bit: overlong, not truncated.
  return Status::Corruption(input->size() >= 10 ? "varint too long"
                                                : "truncated varint");
}

Status GetVarint32(std::string_view* input, uint32_t* value) {
  uint64_t v = 0;
  RETURN_IF_ERROR(GetVarint64(input, &v));
  if (v > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *value = static_cast<uint32_t>(v);
  return Status::OK();
}

Status GetLengthPrefixed(std::string_view* input, std::string_view* value) {
  uint64_t len = 0;
  RETURN_IF_ERROR(GetVarint64(input, &len));
  if (input->size() < len) {
    return Status::Corruption("truncated length-prefixed string");
  }
  *value = input->substr(0, len);
  input->remove_prefix(len);
  return Status::OK();
}

int VarintLength(uint64_t value) {
  int len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

}  // namespace nexsort
