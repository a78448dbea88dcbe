// ESP-style IPsec tunnel encapsulation (RFC 4303 framing, AES-128-CBC).
//
// The paper's third application encrypts every packet "as is typical in
// VPNs" (§5.1). We implement tunnel-mode ESP: the original IP packet is
// wrapped in [new IP hdr][ESP hdr: SPI, seq][IV][ciphertext][pad, padlen,
// next-hdr]. Authentication (ICV) is not modeled — the paper benchmarks
// encryption only.
#ifndef RB_CRYPTO_ESP_HPP_
#define RB_CRYPTO_ESP_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/cbc.hpp"
#include "packet/headers.hpp"
#include "packet/packet.hpp"

namespace rb {

struct EspConfig {
  uint8_t key[Aes128::kKeySize] = {0};
  uint32_t spi = 0x52420001;
  uint32_t tunnel_src = 0x0a000001;  // 10.0.0.1
  uint32_t tunnel_dst = 0x0a000002;  // 10.0.0.2
};

class EspTunnel {
 public:
  explicit EspTunnel(const EspConfig& config);

  // Encapsulates the Ethernet+IPv4 frame in place: strips Ethernet,
  // encrypts the IP packet into an ESP tunnel packet, re-adds Ethernet.
  // Returns false, leaving the frame as it was, if the packet is not IPv4
  // or lacks head/tail room. The n = 1 case of EncapsulateBatch.
  bool Encapsulate(Packet* p);

  // Encapsulates `n` frames; ok[i] is what Encapsulate(pkts[i]) would
  // return, and the frames, sequence numbers and IVs are those of n
  // Encapsulate calls in order. All the frames' CBC streams are encrypted
  // in one AesCbc::EncryptMany call.
  void EncapsulateBatch(Packet* const* pkts, size_t n, bool* ok);

  // Reverses Encapsulate. Returns false on malformed input (wrong SPI,
  // bad padding, truncated frame).
  bool Decapsulate(Packet* p);

  uint32_t next_seq() const { return seq_; }

  static constexpr uint32_t kEspHeaderBytes = 8;   // SPI + sequence
  static constexpr uint32_t kIvBytes = Aes128::kBlockSize;

 private:
  // Checks one frame and, if it can be encapsulated, strips Ethernet,
  // appends the ESP trailer and queues its CBC stream with a fresh IV.
  bool Frame(Packet* p);
  // Prepends IV, ESP header, outer IPv4 and the frame's own Ethernet
  // header around the ciphertext: the tunnel's template, then the fields
  // that differ per frame.
  void WriteHeaders(Packet* p, const uint8_t iv[kIvBytes]);

  EspConfig config_;
  AesCbc cbc_;
  // The outer IPv4 header and SPI every frame of this tunnel carries,
  // built once with total length and checksum zero, and the one's-
  // complement sum of that header, which each frame's checksum extends
  // by its total length.
  uint8_t outer_[Ipv4View::kMinSize + 4] = {};
  uint32_t outer_sum_ = 0;
  uint32_t seq_ = 1;
  uint64_t iv_counter_ = 0x5242000000000000ULL;
  std::vector<CbcStream> streams_;  // per-call scratch, reused
};

}  // namespace rb

#endif  // RB_CRYPTO_ESP_HPP_
