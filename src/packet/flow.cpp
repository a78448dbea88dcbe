#include "packet/flow.hpp"

#include "packet/headers.hpp"

namespace rb {

bool ExtractFlowKey(const Packet& p, FlowKey* key) {
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

}  // namespace rb
