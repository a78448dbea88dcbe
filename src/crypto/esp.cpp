#include "crypto/esp.hpp"

#include <cstring>

#include "packet/headers.hpp"

namespace rb {

namespace {

// Bytes encapsulation prepends in front of the IP packet.
constexpr uint32_t kPrepended =
    Ipv4View::kMinSize + EspTunnel::kEspHeaderBytes + EspTunnel::kIvBytes;

// RFC 4303 §2.4 default padding: the bytes 1, 2, 3, ... A trailer needs at
// most 15 of them.
constexpr uint8_t kPadding[Aes128::kBlockSize] = {1, 2,  3,  4,  5,  6,  7,  8,
                                                  9, 10, 11, 12, 13, 14, 15, 16};

}  // namespace

EspTunnel::EspTunnel(const EspConfig& config) : config_(config), cbc_(config.key) {
  Ipv4View::WriteDefault(outer_, config_.tunnel_src, config_.tunnel_dst, Ipv4View::kProtoEsp,
                         /*total_length=*/0);
  Ipv4View{outer_}.set_checksum(0);
  outer_sum_ = ChecksumPartial(outer_, Ipv4View::kMinSize);
  StoreBe32(outer_ + Ipv4View::kMinSize, config_.spi);
}

bool EspTunnel::Encapsulate(Packet* p) {
  bool ok = false;
  EncapsulateBatch(&p, 1, &ok);
  return ok;
}

void EspTunnel::EncapsulateBatch(Packet* const* pkts, size_t n, bool* ok) {
  streams_.clear();
  for (size_t i = 0; i < n; ++i) {
    ok[i] = Frame(pkts[i]);
  }
  cbc_.EncryptMany(streams_.data(), streams_.size());
  const CbcStream* s = streams_.data();
  for (size_t i = 0; i < n; ++i) {
    if (ok[i]) {
      WriteHeaders(pkts[i], (s++)->iv);
    }
  }
}

bool EspTunnel::Frame(Packet* p) {
  if (p->length() < EthernetView::kSize + Ipv4View::kMinSize ||
      EthernetView{p->data()}.ether_type() != EthernetView::kTypeIpv4 ||
      p->headroom() < kPrepended) {
    return false;
  }
  // ESP operates on the IP packet. Trailer: pad + pad-length byte +
  // next-header byte.
  const uint32_t inner_len = p->length() - EthernetView::kSize;
  const uint32_t pad = static_cast<uint32_t>(CbcPadLength(inner_len, /*esp_trailer=*/true));
  if (p->tailroom() < pad + 2) {
    return false;
  }
  // The Ethernet header stays in the headroom until WriteHeaders moves it.
  p->Pull(EthernetView::kSize);
  uint8_t* tail = p->Put(pad + 2);
  memcpy(tail, kPadding, pad);
  tail[pad] = static_cast<uint8_t>(pad);
  tail[pad + 1] = 4;  // next header: IPv4 (tunnel mode)

  // IV: counter-derived, unique per packet.
  CbcStream& s = streams_.emplace_back();
  s.data = p->data();
  s.len = p->length();
  const uint64_t ctr = iv_counter_++;
  for (int i = 0; i < 8; ++i) {
    s.iv[8 + i] = static_cast<uint8_t>(ctr >> (56 - 8 * i));
  }
  return true;
}

void EspTunnel::WriteHeaders(Packet* p, const uint8_t iv[kIvBytes]) {
  const uint8_t* old_eth = p->data() - EthernetView::kSize;
  const uint16_t tunnel_len = static_cast<uint16_t>(p->length() + kPrepended);
  uint8_t* front = p->Push(EthernetView::kSize + kPrepended);
  // Moved before the IV overwrites it; the two ranges cannot overlap.
  memcpy(front, old_eth, EthernetView::kSize);
  uint8_t* outer = front + EthernetView::kSize;
  memcpy(outer, outer_, sizeof(outer_));
  Ipv4View ip{outer};
  ip.set_total_length(tunnel_len);
  ip.set_checksum(ChecksumFinish(outer_sum_ + tunnel_len));
  uint8_t* esp = outer + Ipv4View::kMinSize;
  StoreBe32(esp + 4, seq_++);
  memcpy(esp + kEspHeaderBytes, iv, kIvBytes);
}

bool EspTunnel::Decapsulate(Packet* p) {
  constexpr uint32_t kMinEsp = EthernetView::kSize + Ipv4View::kMinSize + kEspHeaderBytes +
                               kIvBytes + Aes128::kBlockSize;
  if (p->length() < kMinEsp) {
    return false;
  }
  uint8_t saved_eth[EthernetView::kSize];
  memcpy(saved_eth, p->data(), EthernetView::kSize);
  p->Pull(EthernetView::kSize);

  Ipv4View outer{p->data()};
  if (outer.version() != 4 || outer.protocol() != Ipv4View::kProtoEsp) {
    p->Push(EthernetView::kSize);
    return false;
  }
  p->Pull(outer.header_length());
  uint32_t spi = LoadBe32(p->data());
  if (spi != config_.spi) {
    return false;  // packet is consumed-as-failed; caller drops it
  }
  p->Pull(kEspHeaderBytes);
  uint8_t iv[kIvBytes];
  memcpy(iv, p->data(), kIvBytes);
  p->Pull(kIvBytes);

  if (p->length() % Aes128::kBlockSize != 0 || p->length() == 0) {
    return false;
  }
  cbc_.Decrypt(p->data(), p->length(), iv);

  // Strip the trailer.
  uint8_t next_header = p->data()[p->length() - 1];
  uint8_t pad_len = p->data()[p->length() - 2];
  if (next_header != 4 || pad_len + 2u > p->length()) {
    return false;
  }
  p->Trim(pad_len + 2u);

  uint8_t* eth2 = p->Push(EthernetView::kSize);
  memcpy(eth2, saved_eth, EthernetView::kSize);
  return true;
}

}  // namespace rb
