// Wire-format header readers/writers for Ethernet, IPv4, UDP and TCP.
//
// Headers are accessed through explicit byte-order helpers rather than
// overlaying packed structs: overlaying is UB-prone (alignment, strict
// aliasing) and the explicit form documents the offsets. All multi-byte
// fields are big-endian on the wire; accessor APIs use host-order values.
#ifndef RB_PACKET_HEADERS_HPP_
#define RB_PACKET_HEADERS_HPP_

#include <array>
#include <cstdint>
#include <string>

#include "packet/checksum.hpp"

namespace rb {

// --- byte order ---
inline uint16_t LoadBe16(const uint8_t* p) {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}
inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}
inline void StoreBe16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}
inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

// --- Ethernet ---
using MacAddress = std::array<uint8_t, 6>;

struct EthernetView {
  static constexpr uint32_t kSize = 14;
  static constexpr uint16_t kTypeIpv4 = 0x0800;
  static constexpr uint16_t kTypeArp = 0x0806;

  uint8_t* base;

  MacAddress dst() const;
  MacAddress src() const;
  uint16_t ether_type() const { return LoadBe16(base + 12); }

  void set_dst(const MacAddress& m);
  void set_src(const MacAddress& m);
  void set_ether_type(uint16_t t) { StoreBe16(base + 12, t); }
};

// Builds a MAC address that encodes a cluster node id in the low two bytes
// (the paper's §6.1 output-node-in-MAC trick); the top byte is set to the
// locally-administered unicast prefix 0x02.
MacAddress MacForNode(uint16_t node_id);
// Inverse of MacForNode; returns Packet::kNoNode-style 0xffff if the MAC
// does not carry the encoding prefix.
uint16_t NodeFromMac(const MacAddress& mac);

std::string MacToString(const MacAddress& mac);

// --- IPv4 ---
struct Ipv4View {
  static constexpr uint32_t kMinSize = 20;
  static constexpr uint8_t kProtoIcmp = 1;
  static constexpr uint8_t kProtoTcp = 6;
  static constexpr uint8_t kProtoUdp = 17;
  static constexpr uint8_t kProtoEsp = 50;

  uint8_t* base;

  uint8_t version() const { return base[0] >> 4; }
  uint8_t ihl() const { return base[0] & 0x0f; }               // in 32-bit words
  uint32_t header_length() const { return ihl() * 4u; }
  uint8_t tos() const { return base[1]; }
  uint16_t total_length() const { return LoadBe16(base + 2); }
  uint16_t identification() const { return LoadBe16(base + 4); }
  uint16_t flags_fragment() const { return LoadBe16(base + 6); }
  uint8_t ttl() const { return base[8]; }
  uint8_t protocol() const { return base[9]; }
  uint16_t checksum() const { return LoadBe16(base + 10); }
  uint32_t src() const { return LoadBe32(base + 12); }
  uint32_t dst() const { return LoadBe32(base + 16); }

  void set_version_ihl(uint8_t version, uint8_t ihl) {
    base[0] = static_cast<uint8_t>((version << 4) | (ihl & 0x0f));
  }
  void set_tos(uint8_t v) { base[1] = v; }
  void set_total_length(uint16_t v) { StoreBe16(base + 2, v); }
  void set_identification(uint16_t v) { StoreBe16(base + 4, v); }
  void set_flags_fragment(uint16_t v) { StoreBe16(base + 6, v); }
  void set_ttl(uint8_t v) { base[8] = v; }
  void set_protocol(uint8_t v) { base[9] = v; }
  void set_checksum(uint16_t v) { StoreBe16(base + 10, v); }
  void set_src(uint32_t v) { StoreBe32(base + 12, v); }
  void set_dst(uint32_t v) { StoreBe32(base + 16, v); }

  // Recomputes and stores the header checksum.
  void UpdateChecksum();
  // True if the stored checksum matches the header contents: the
  // header's ihl 32-bit words sum and fold to all ones.
  bool ChecksumOk() const { return ChecksumWords32(base, ihl()) == 0xffff; }

  // Writes a fresh 20-byte header with sane defaults (version 4, ihl 5,
  // ttl 64) and the given addressing; checksum is computed.
  static void WriteDefault(uint8_t* base, uint32_t src, uint32_t dst, uint8_t protocol,
                           uint16_t total_length);
};

// --- UDP ---
struct UdpView {
  static constexpr uint32_t kSize = 8;
  uint8_t* base;

  uint16_t src_port() const { return LoadBe16(base); }
  uint16_t dst_port() const { return LoadBe16(base + 2); }
  uint16_t length() const { return LoadBe16(base + 4); }
  uint16_t checksum() const { return LoadBe16(base + 6); }

  void set_src_port(uint16_t v) { StoreBe16(base, v); }
  void set_dst_port(uint16_t v) { StoreBe16(base + 2, v); }
  void set_length(uint16_t v) { StoreBe16(base + 4, v); }
  void set_checksum(uint16_t v) { StoreBe16(base + 6, v); }
};

// --- TCP (fields we need; options not modeled) ---
struct TcpView {
  static constexpr uint32_t kMinSize = 20;
  uint8_t* base;

  uint16_t src_port() const { return LoadBe16(base); }
  uint16_t dst_port() const { return LoadBe16(base + 2); }
  uint32_t seq() const { return LoadBe32(base + 4); }
  uint32_t ack() const { return LoadBe32(base + 8); }

  void set_src_port(uint16_t v) { StoreBe16(base, v); }
  void set_dst_port(uint16_t v) { StoreBe16(base + 2, v); }
  void set_seq(uint32_t v) { StoreBe32(base + 4, v); }
  void set_ack(uint32_t v) { StoreBe32(base + 8, v); }
};

}  // namespace rb

#endif  // RB_PACKET_HEADERS_HPP_
