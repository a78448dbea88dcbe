#include "packet/headers.hpp"

#include "common/strings.hpp"
#include "packet/checksum.hpp"

namespace rb {

MacAddress EthernetView::dst() const {
  MacAddress m;
  for (int i = 0; i < 6; ++i) {
    m[static_cast<size_t>(i)] = base[i];
  }
  return m;
}

MacAddress EthernetView::src() const {
  MacAddress m;
  for (int i = 0; i < 6; ++i) {
    m[static_cast<size_t>(i)] = base[6 + i];
  }
  return m;
}

void EthernetView::set_dst(const MacAddress& m) {
  for (size_t i = 0; i < 6; ++i) {
    base[i] = m[i];
  }
}

void EthernetView::set_src(const MacAddress& m) {
  for (size_t i = 0; i < 6; ++i) {
    base[6 + i] = m[i];
  }
}

MacAddress MacForNode(uint16_t node_id) {
  // 02:rb:00:00:hi:lo -- locally administered, unicast.
  return MacAddress{0x02, 0x4b, 0x00, 0x00, static_cast<uint8_t>(node_id >> 8),
                    static_cast<uint8_t>(node_id & 0xff)};
}

uint16_t NodeFromMac(const MacAddress& mac) {
  if (mac[0] != 0x02 || mac[1] != 0x4b || mac[2] != 0x00 || mac[3] != 0x00) {
    return 0xffff;
  }
  return static_cast<uint16_t>((mac[4] << 8) | mac[5]);
}

std::string MacToString(const MacAddress& mac) {
  return Format("%02x:%02x:%02x:%02x:%02x:%02x", mac[0], mac[1], mac[2], mac[3], mac[4], mac[5]);
}

void Ipv4View::UpdateChecksum() {
  set_checksum(0);
  set_checksum(Checksum(base, header_length()));
}

void Ipv4View::WriteDefault(uint8_t* base, uint32_t src, uint32_t dst, uint8_t protocol,
                            uint16_t total_length) {
  Ipv4View ip{base};
  ip.set_version_ihl(4, 5);
  ip.set_tos(0);
  ip.set_total_length(total_length);
  ip.set_identification(0);
  ip.set_flags_fragment(0x4000);  // DF
  ip.set_ttl(64);
  ip.set_protocol(protocol);
  ip.set_checksum(0);
  ip.set_src(src);
  ip.set_dst(dst);
  ip.UpdateChecksum();
}

}  // namespace rb
