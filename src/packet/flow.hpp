// Flow identification: the classic 5-tuple and the RSS-style hash that
// multi-queue NICs use to steer packets to receive queues (§4.2). The hash
// must be (a) deterministic so the same flow always lands on the same
// queue — a prerequisite for the flowlet reordering-avoidance scheme — and
// (b) well mixed so queues load-balance.
#ifndef RB_PACKET_FLOW_HPP_
#define RB_PACKET_FLOW_HPP_

#include <cstdint>
#include <functional>

#include "packet/headers.hpp"
#include "packet/packet.hpp"

namespace rb {

struct FlowKey {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 0;

  bool operator==(const FlowKey&) const = default;
};

// 64-bit mix of the 5-tuple (SplitMix-style finalizer). Stable across runs.
inline uint64_t FlowHash64(const FlowKey& key) {
  uint64_t x = (static_cast<uint64_t>(key.src_ip) << 32) | key.dst_ip;
  uint64_t y = (static_cast<uint64_t>(key.src_port) << 24) |
               (static_cast<uint64_t>(key.dst_port) << 8) | key.protocol;
  // Two rounds of the splitmix64 finalizer over the combined words.
  uint64_t z = x ^ (y * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  z += y;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// 32-bit variant for the Packet::flow_hash annotation.
inline uint32_t FlowHash32(const FlowKey& key) {
  uint64_t h = FlowHash64(key);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

// Extracts the 5-tuple from an Ethernet+IPv4(+TCP/UDP) frame. Returns false
// if the frame is not parseable (non-IPv4, truncated). Ports are zero for
// protocols other than TCP/UDP. Inline: NIC steering, Nat, FlowPolicer and
// SetFlowHash call it once per packet.
inline bool ExtractFlowKey(const Packet& p, FlowKey* key) {
  if (p.length() < EthernetView::kSize + Ipv4View::kMinSize) {
    return false;
  }
  // const_cast is confined here: views are read-only in this function.
  uint8_t* base = const_cast<uint8_t*>(p.data());
  EthernetView eth{base};
  if (eth.ether_type() != EthernetView::kTypeIpv4) {
    return false;
  }
  Ipv4View ip{base + EthernetView::kSize};
  if (ip.version() != 4 || ip.ihl() < 5) {
    return false;
  }
  key->src_ip = ip.src();
  key->dst_ip = ip.dst();
  key->protocol = ip.protocol();
  key->src_port = 0;
  key->dst_port = 0;
  uint32_t l4_off = EthernetView::kSize + ip.header_length();
  if ((ip.protocol() == Ipv4View::kProtoTcp || ip.protocol() == Ipv4View::kProtoUdp) &&
      p.length() >= l4_off + 4) {
    key->src_port = LoadBe16(base + l4_off);
    key->dst_port = LoadBe16(base + l4_off + 2);
  }
  return true;
}

struct FlowKeyHasher {
  size_t operator()(const FlowKey& key) const { return static_cast<size_t>(FlowHash64(key)); }
};

}  // namespace rb

#endif  // RB_PACKET_FLOW_HPP_
