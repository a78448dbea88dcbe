// AES-128 block cipher, implemented from FIPS-197.
//
// The paper's IPsec application encrypts every packet with AES-128 "as is
// typical in VPNs" (§5.1). This is the portable, byte-wise implementation
// (S-box + MixColumns over GF(2^8)), one block at a time. It is the only
// cipher on CPUs without AES-NI and the reference the AES-NI and VAES
// kernels in aesni.cpp are tested against; AesCbc (cbc.hpp) picks among
// them.
// Its FIPS-197 key expansion is shared by both: the expanded schedule's
// byte layout is exactly the round-key layout `aesenc` consumes.
#ifndef RB_CRYPTO_AES128_HPP_
#define RB_CRYPTO_AES128_HPP_

#include <array>
#include <cstddef>
#include <cstdint>

namespace rb {

class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  explicit Aes128(const uint8_t key[kKeySize]);

  // Encrypts/decrypts exactly one 16-byte block. in and out may alias.
  void EncryptBlock(const uint8_t in[kBlockSize], uint8_t out[kBlockSize]) const;
  void DecryptBlock(const uint8_t in[kBlockSize], uint8_t out[kBlockSize]) const;

  // The expanded encryption schedule: (kRounds + 1) round keys of 16 bytes,
  // round 0 first.
  const uint8_t* round_keys() const { return round_keys_.data(); }

 private:
  // Round keys: (kRounds + 1) * 16 bytes.
  std::array<uint8_t, (kRounds + 1) * kBlockSize> round_keys_;
};

}  // namespace rb

#endif  // RB_CRYPTO_AES128_HPP_
