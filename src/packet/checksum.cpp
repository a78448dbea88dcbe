#include "packet/checksum.hpp"

#include <bit>

namespace rb {

uint32_t ChecksumPartial(const uint8_t* data, size_t len, uint32_t sum) {
  uint64_t acc = 0;
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    uint32_t w;
    std::memcpy(&w, data + i, sizeof(w));
    acc += w;
  }
  if (i + 2 <= len) {
    uint16_t h;
    std::memcpy(&h, data + i, sizeof(h));
    acc += h;
    i += 2;
  }
  const bool little = std::endian::native == std::endian::little;
  if (i < len) {
    // The odd byte is the high byte of its big-endian pair.
    acc += little ? data[i] : static_cast<uint32_t>(data[i]) << 8;
  }
  const uint16_t folded = ChecksumFold(acc);
  return sum + (little ? static_cast<uint16_t>((folded << 8) | (folded >> 8)) : folded);
}

}  // namespace rb
