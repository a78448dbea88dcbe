#include "packet/packet.hpp"

#include "common/log.hpp"

namespace rb {

void Packet::SetPayload(const uint8_t* src, uint32_t len) {
  RB_CHECK(kDefaultHeadroom + len <= kMaxCapacity);
  offset_ = kDefaultHeadroom;
  memcpy(buf_ + offset_, src, len);
  length_ = len;
}

void Packet::SetLength(uint32_t len) {
  RB_CHECK(offset_ + len <= kMaxCapacity);
  length_ = len;
}

}  // namespace rb
