// IPsec elements: IpsecEncrypt wraps frames in an ESP tunnel (the §5.1
// IPsec application — AES-128 on every packet); IpsecDecrypt reverses it.
// Encapsulation failures (non-IPv4, no room) exit output 1 when wired.
// Batch-native: one ESP phase scope covers the whole burst of crypto, and
// IpsecEncrypt hands the burst to EspTunnel::EncapsulateBatch so that its
// packets are encrypted abreast.
#ifndef RB_CLICK_ELEMENTS_IPSEC_HPP_
#define RB_CLICK_ELEMENTS_IPSEC_HPP_

#include "click/element.hpp"
#include "crypto/esp.hpp"

namespace rb {

class IpsecEncrypt : public Element {
 public:
  explicit IpsecEncrypt(const EspConfig& config);
  const char* class_name() const override { return "IPsecEncrypt"; }
  void PushBatch(int port, PacketBatch& batch) override;

  uint64_t encrypted() const { return encrypted_; }

 private:
  EspTunnel tunnel_;
  uint64_t encrypted_ = 0;
};

class IpsecDecrypt : public Element {
 public:
  explicit IpsecDecrypt(const EspConfig& config);
  const char* class_name() const override { return "IPsecDecrypt"; }
  void PushBatch(int port, PacketBatch& batch) override;

  uint64_t decrypted() const { return decrypted_; }

 private:
  EspTunnel tunnel_;
  uint64_t decrypted_ = 0;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_IPSEC_HPP_
