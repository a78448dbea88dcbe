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

uint8_t* Packet::Push(uint32_t n) {
  RB_CHECK_MSG(offset_ >= n, "no headroom left");
  offset_ -= n;
  length_ += n;
  return buf_ + offset_;
}

void Packet::Pull(uint32_t n) {
  RB_CHECK(n <= length_);
  offset_ += n;
  length_ -= n;
}

uint8_t* Packet::Put(uint32_t n) {
  RB_CHECK_MSG(tailroom() >= n, "no tailroom left");
  uint8_t* p = buf_ + offset_ + length_;
  length_ += n;
  return p;
}

void Packet::Trim(uint32_t n) {
  RB_CHECK(n <= length_);
  length_ -= n;
}

}  // namespace rb
