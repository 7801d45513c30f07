#ifndef WSIE_COMMON_VARINT_H_
#define WSIE_COMMON_VARINT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace wsie {

/// Appends `v` as an LEB128 varint: up to 10 bytes for a full uint64.
inline void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Consumes one varint from `*in`. Returns false, leaving `*in` untouched,
/// on truncation or on a value that does not fit 64 bits: an encoding past
/// byte 10, or a 10th byte carrying more than the value's top bit.
inline bool GetVarint(std::string_view* in, uint64_t* v) {
  uint64_t result = 0;
  for (size_t i = 0; i < 10; ++i) {
    if (i >= in->size()) return false;
    uint64_t byte = static_cast<unsigned char>((*in)[i]);
    if (i == 9 && (byte & 0xfe) != 0) return false;
    result |= (byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      in->remove_prefix(i + 1);
      *v = result;
      return true;
    }
  }
  return false;
}

}  // namespace wsie

#endif  // WSIE_COMMON_VARINT_H_
