// AES-128-CBC with PKCS#7-style padding helpers.
//
// Two implementations sit behind one interface. On CPUs with AES-NI every
// call runs the kernels in aesni.cpp; elsewhere it runs the portable
// FIPS-197 cipher (aes128.cpp) one block at a time. The choice is made
// once per AesCbc from cpuid and nothing else selects it. The portable
// path stays callable directly (EncryptPortable / DecryptPortable): it is
// the reference the AES-NI kernels are tested against.
#ifndef RB_CRYPTO_CBC_HPP_
#define RB_CRYPTO_CBC_HPP_

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/aes128.hpp"

namespace rb {

// One independent CBC encryption: `len` bytes at `data`, in place, chained
// from `iv`. len must be a multiple of 16 (zero is allowed).
struct CbcStream {
  uint8_t* data = nullptr;
  size_t len = 0;
  uint8_t iv[Aes128::kBlockSize] = {};
};

class AesCbc {
 public:
  explicit AesCbc(const uint8_t key[Aes128::kKeySize]);

  // Encrypts `len` bytes in place; len must be a multiple of 16.
  void Encrypt(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const;

  // Decrypts `len` bytes in place; len must be a multiple of 16. With
  // AES-NI, eight blocks of the stream are decrypted abreast (CBC
  // decryption is parallel within a stream).
  void Decrypt(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const;

  // Encrypts `n` independent streams; the result equals Encrypt on each.
  // CBC encryption is serial within a stream, so with AES-NI eight
  // streams advance abreast, one block each per step, and a lane takes
  // the next stream as soon as its current one ends.
  void EncryptMany(CbcStream* streams, size_t n) const;

  // The portable FIPS-197 path, whatever the CPU.
  void EncryptPortable(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const;
  void DecryptPortable(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const;

  // True when Encrypt/Decrypt/EncryptMany run on AES-NI.
  bool uses_aesni() const { return aesni_; }

  const Aes128& cipher() const { return cipher_; }

 private:
  Aes128 cipher_;
  bool aesni_;
  // AES-NI decryption schedule (aesimc of rounds 1-9, in reverse); filled
  // only when aesni_.
  std::array<uint8_t, (Aes128::kRounds + 1) * Aes128::kBlockSize> dec_keys_{};
};

// Number of padding bytes needed to round `len` (+2 ESP trailer bytes when
// `esp_trailer` is true) up to a 16-byte multiple.
size_t CbcPadLength(size_t len, bool esp_trailer);

}  // namespace rb

#endif  // RB_CRYPTO_CBC_HPP_
