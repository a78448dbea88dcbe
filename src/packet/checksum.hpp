// RFC 1071 Internet checksum.
//
// Sums run over 32-bit words loaded in host byte order and are folded and
// byte-swapped back at the end: a one's-complement sum does not depend on
// byte order (RFC 1071 §2), so the result equals the byte-pair sum.
#ifndef RB_PACKET_CHECKSUM_HPP_
#define RB_PACKET_CHECKSUM_HPP_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rb {

// One's-complement fold of a wide sum to 16 bits, end-around carries
// included. Zero stays zero; any other sum folds into [1, 0xffff].
inline uint16_t ChecksumFold(uint64_t sum) {
  sum = (sum & 0xffffffffu) + (sum >> 32);
  sum = (sum & 0xffffffffu) + (sum >> 32);
  sum = (sum & 0xffffu) + (sum >> 16);
  sum = (sum & 0xffffu) + (sum >> 16);
  return static_cast<uint16_t>(sum);
}

// Folded one's-complement sum of `words` 32-bit words at `data` (any
// alignment), in host byte order: the big-endian sum, byte-swapped on a
// little-endian host. A verifier compares it with 0xffff, which reads the
// same in either order.
inline uint16_t ChecksumWords32(const uint8_t* data, size_t words) {
  uint64_t sum = 0;
  for (size_t i = 0; i < words; ++i) {
    uint32_t w;
    std::memcpy(&w, data + 4 * i, sizeof(w));
    sum += w;
  }
  return ChecksumFold(sum);
}

// One's-complement sum of `len` bytes as big-endian byte pairs (a
// trailing odd byte is the high byte of a zero-padded pair), added to
// `sum`; not folded, not inverted. Each call starts its pairs at `data`,
// so regions combine exactly when all but the last have even length.
uint32_t ChecksumPartial(const uint8_t* data, size_t len, uint32_t sum = 0);

// Folds a partial sum into 16 bits and inverts: the final checksum value.
inline uint16_t ChecksumFinish(uint32_t sum) { return static_cast<uint16_t>(~ChecksumFold(sum)); }

// Convenience: full checksum of a region.
inline uint16_t Checksum(const uint8_t* data, size_t len) {
  return ChecksumFinish(ChecksumPartial(data, len));
}

// Incremental checksum update per RFC 1624 (HC' = ~(~HC + ~m + m')) for a
// 16-bit field change; used by DecIPTTL to avoid recomputing the header.
inline uint16_t ChecksumUpdate16(uint16_t old_checksum, uint16_t old_field,
                                 uint16_t new_field) {
  uint32_t sum = static_cast<uint16_t>(~old_checksum);
  sum += static_cast<uint16_t>(~old_field);
  sum += new_field;
  return static_cast<uint16_t>(~ChecksumFold(sum));
}

// RFC 1624 update for a 32-bit field change (an IPv4 address), folding
// both 16-bit halves into one pass. Bit-identical to chaining
// ChecksumUpdate16 over the high and low halves — the single audited
// patch helper shared by the injector's template fill and the NAT
// rewrite path. Note the one's-complement zero ambiguity: patching a
// field from 0 to 0 is not an identity (0x0000 vs 0xffff residue), so
// callers patching optional fields guard on old != new.
inline uint16_t ChecksumUpdate32(uint16_t old_checksum, uint32_t old_field,
                                 uint32_t new_field) {
  // One's-complement addition is associative under folding, so summing
  // both halves before the fold matches the two-step 16-bit chain.
  uint32_t sum = static_cast<uint16_t>(~old_checksum);
  sum += static_cast<uint16_t>(~(old_field >> 16));
  sum += static_cast<uint16_t>(new_field >> 16);
  sum += static_cast<uint16_t>(~old_field);
  sum += static_cast<uint16_t>(new_field);
  return static_cast<uint16_t>(~ChecksumFold(sum));
}

}  // namespace rb

#endif  // RB_PACKET_CHECKSUM_HPP_
