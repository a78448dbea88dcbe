#include "checks.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "click/elements/nat.hpp"
#include "common/strings.hpp"
#include "crypto/cbc.hpp"
#include "packet/checksum.hpp"
#include "packet/headers.hpp"

namespace perfbench {
namespace {

using rb::EthernetView;
using rb::Ipv4View;
using rb::UdpView;

constexpr uint32_t kCopyStride = rb::Packet::kMaxCapacity;
// ipsec_abilene decapsulates one frame in this many.
constexpr uint32_t kEspSampleEvery = 16;

bool KeepsCopy(Workload w, uint32_t slot) {
  return w == Workload::kFwd64 || (w == Workload::kIpsecAbilene && slot % kEspSampleEvery == 0);
}

uint32_t EspFrameLength(uint32_t frame) {
  const uint32_t inner = frame - EthernetView::kSize;
  const uint32_t pad = static_cast<uint32_t>(rb::CbcPadLength(inner, /*esp_trailer=*/true));
  return EthernetView::kSize + Ipv4View::kMinSize + rb::EspTunnel::kEspHeaderBytes +
         rb::EspTunnel::kIvBytes + inner + pad + 2;
}

// Every planned frame carries a UDP checksum, so the sum must verify even
// when the field reads zero: RFC 768 sends a computed zero as 0xffff, and
// a zero field whose sum verifies is that all-ones value in the other
// one's-complement form (counted apart by the caller).
bool UdpChecksumOk(const Ipv4View& ip, const uint8_t* udp, uint32_t udp_len) {
  uint8_t pseudo[12] = {};
  rb::StoreBe32(pseudo, ip.src());
  rb::StoreBe32(pseudo + 4, ip.dst());
  pseudo[9] = ip.protocol();
  rb::StoreBe16(pseudo + 10, static_cast<uint16_t>(udp_len));
  uint32_t sum = rb::ChecksumPartial(pseudo, sizeof(pseudo));
  sum = rb::ChecksumPartial(udp, udp_len, sum);
  return rb::ChecksumFinish(sum) == 0;
}

}  // namespace

Checker::Checker(const Plan& plan)
    : plan_(plan), copies_(size_t{kChunk} * kCopyStride), esp_(rb::EspConfig{}) {
  if (plan.workload == Workload::kRtrNat64) {
    flow_port_.assign(plan.flows.size(), 0);
    flow_evictions_.assign(plan.flows.size(), 0);
    for (int p = 0; p < kPorts; ++p) {
      port_owner_[p].assign(kNatCapacity, 0);
      port_chunk_[p].assign(kNatCapacity, 0);
    }
  }
}

void Checker::Reset() {
  std::fill(flow_port_.begin(), flow_port_.end(), 0);
  std::fill(flow_evictions_.begin(), flow_evictions_.end(), 0);
  for (int p = 0; p < kPorts; ++p) {
    std::fill(port_chunk_[p].begin(), port_chunk_[p].end(), 0);
  }
  std::fill(std::begin(chunk_start_evictions_), std::end(chunk_start_evictions_), 0);
}

void Checker::Offer(uint32_t slot, const PlanOffer& offer, const rb::Packet& p) {
  slots_[slot] = Slot{offer, false};
  if (KeepsCopy(plan_.workload, slot)) {
    std::memcpy(&copies_[size_t{slot} * kCopyStride], p.data(), p.length());
  }
}

void Checker::Fail(const std::string& why) {
  bad_++;
  if (first_failure_.empty()) {
    first_failure_ = why;
  }
}

void Checker::CheckChunk(uint32_t chunk, uint32_t offered, rb::Packet* const* pkts,
                         const uint8_t* egress, uint32_t n, const uint64_t* nat_evictions) {
  std::fill(std::begin(handovers_), std::end(handovers_), 0);
  for (uint32_t i = 0; i < n; ++i) {
    rb::Packet* p = pkts[i];
    checked_++;
    const uint64_t tag = p->flow_seq();
    const uint32_t slot = static_cast<uint32_t>(tag & 0xffff);
    if ((tag >> 16) != chunk || slot >= offered || slots_[slot].seen) {
      Fail(rb::Format("chunk %u: frame with tag %llx is stale, unknown or duplicated", chunk,
                      static_cast<unsigned long long>(tag)));
      continue;
    }
    slots_[slot].seen = true;
    CheckFrame(slot, p, egress[i], chunk, nat_evictions);
  }
  std::copy(nat_evictions, nat_evictions + kPorts, chunk_start_evictions_);
  for (uint32_t s = 0; s < offered; ++s) {
    if (!slots_[s].seen) {
      missing_++;
      if (first_failure_.empty()) {
        first_failure_ = rb::Format("chunk %u: offered frame %u never transmitted", chunk, s);
      }
    }
  }
}

void Checker::CheckFrame(uint32_t index, rb::Packet* p, uint8_t egress, uint32_t chunk,
                         const uint64_t* nat_evictions) {
  const Slot& slot = slots_[index];
  const PlanFlow& flow = plan_.flows[slot.offer.flow];
  const uint32_t size = slot.offer.size;
  const uint8_t* copy = &copies_[size_t{index} * kCopyStride];
  if (egress != flow.out_port) {
    Fail(rb::Format("chunk %u: flow %u left on port %u, expected %u", chunk, slot.offer.flow,
                    egress, flow.out_port));
    return;
  }
  switch (plan_.workload) {
    case Workload::kFwd64:
      if (p->length() != size || std::memcmp(p->data(), copy, size) != 0) {
        Fail(rb::Format("chunk %u: forwarded frame of flow %u changed", chunk, slot.offer.flow));
      }
      return;
    case Workload::kRtrNat64:
      CheckNat(flow, slot.offer.flow, *p, chunk, nat_evictions);
      return;
    case Workload::kIpsecAbilene: {
      Ipv4View outer{p->data() + EthernetView::kSize};
      if (p->length() != EspFrameLength(size) || outer.protocol() != Ipv4View::kProtoEsp ||
          !outer.ChecksumOk() ||
          rb::LoadBe32(p->data() + EthernetView::kSize + Ipv4View::kMinSize) !=
              rb::EspConfig{}.spi) {
        Fail(rb::Format("chunk %u: malformed ESP frame of flow %u", chunk, slot.offer.flow));
        return;
      }
      if (index % kEspSampleEvery == 0) {
        decapsulated_++;
        if (!esp_.Decapsulate(p) || p->length() != size ||
            std::memcmp(p->data(), copy, size) != 0) {
          Fail(rb::Format("chunk %u: ESP frame of flow %u does not decapsulate to the original",
                          chunk, slot.offer.flow));
        }
      }
      return;
    }
  }
}

void Checker::CheckNat(const PlanFlow& flow, uint32_t flow_index, const rb::Packet& p,
                       uint32_t chunk, const uint64_t* nat_evictions) {
  static const rb::NatOptions kNat;
  uint8_t* base = const_cast<uint8_t*>(p.data());
  Ipv4View ip{base + EthernetView::kSize};
  if (p.length() != 64 || ip.ttl() != 63 || !ip.ChecksumOk() || ip.src() != kNat.external_ip ||
      ip.dst() != flow.key.dst_ip || ip.protocol() != Ipv4View::kProtoUdp) {
    Fail(rb::Format("chunk %u: routed frame of flow %u has a bad IPv4 header", chunk, flow_index));
    return;
  }
  const uint8_t* udp = base + EthernetView::kSize + ip.header_length();
  const uint32_t udp_len = ip.total_length() - ip.header_length();
  const uint16_t ext_port = rb::LoadBe16(udp);
  if (rb::LoadBe16(udp + 2) != flow.key.dst_port || !UdpChecksumOk(ip, udp, udp_len) ||
      ext_port < kNat.base_port || ext_port >= kNat.base_port + kNatCapacity) {
    Fail(rb::Format("chunk %u: routed frame of flow %u has a bad UDP header", chunk, flow_index));
    return;
  }
  if (UdpView{const_cast<uint8_t*>(udp)}.checksum() == 0) {
    udp_zero_checksums_++;
  }
  // One stable external port per live flow. A port passes from one flow
  // to another only through an eviction, and so does a flow from one port
  // to another: within a chunk, the handovers a Nat shows may not exceed
  // the evictions it made during the chunk; across chunks, a flow may
  // move only if its Nat evicted something since the flow was last seen.
  const int nat = flow.in_port;
  const uint32_t idx = ext_port - kNat.base_port;
  if (port_chunk_[nat][idx] == chunk + 1 && port_owner_[nat][idx] != flow_index &&
      ++handovers_[nat] > nat_evictions[nat] - chunk_start_evictions_[nat]) {
    Fail(rb::Format("chunk %u: external port %u passed between flows without an eviction",
                    chunk, ext_port));
    return;
  }
  port_chunk_[nat][idx] = chunk + 1;
  port_owner_[nat][idx] = flow_index;
  const uint16_t last = flow_port_[flow_index];
  if (last != 0 && last != ext_port && flow_evictions_[flow_index] == nat_evictions[nat]) {
    Fail(rb::Format("chunk %u: flow %u moved from port %u to %u without an eviction", chunk,
                    flow_index, last, ext_port));
    return;
  }
  flow_port_[flow_index] = ext_port;
  flow_evictions_[flow_index] = chunk_start_evictions_[nat];
}

}  // namespace perfbench
