// AES-128-CBC with PKCS#7-style padding helpers.
//
// Three implementations sit behind one interface. On CPUs with AES-NI every
// call runs the kernels in aesni.cpp, and multi-stream encryption runs at
// VAES width when the CPU also has VAES and AVX-512; elsewhere every call
// runs the portable FIPS-197 cipher (aes128.cpp) one block at a time. The
// choice is made once per AesCbc from cpuid and nothing else selects it.
// The portable path stays callable directly (EncryptPortable /
// DecryptPortable): it is the reference the fast kernels are tested
// against, and tests and benches can name each kernel (EncryptManyOn).
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

// The multi-stream CBC encryption kernels, slowest first.
enum class CbcKernel : uint8_t {
  kPortable,  // the FIPS-197 cipher, one stream after another
  kAesni,     // AES-NI: eight streams abreast in xmm registers
  kVaes,      // VAES + AVX-512F/VL: sixteen abreast, four per zmm register
};

inline constexpr CbcKernel kCbcKernels[] = {CbcKernel::kPortable, CbcKernel::kAesni,
                                            CbcKernel::kVaes};

// True when this CPU can run `kernel` (cpuid).
bool CbcKernelSupported(CbcKernel kernel);

// "portable", "aesni" or "vaes".
const char* CbcKernelName(CbcKernel kernel);

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
  // CBC encryption is serial within a stream, so on kernel() eight or
  // sixteen streams advance abreast, one block each per step, the longest
  // streams start first, and a lane takes the next stream as soon as its
  // current one ends. One stream runs on the serial kernel.
  void EncryptMany(CbcStream* streams, size_t n) const;

  // EncryptMany on a named kernel, which the CPU must support; n = 1
  // runs it too.
  void EncryptManyOn(CbcKernel kernel, CbcStream* streams, size_t n) const;

  // The portable FIPS-197 path, whatever the CPU.
  void EncryptPortable(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const;
  void DecryptPortable(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const;

  // The fastest kernel this CPU supports: what EncryptMany runs.
  // Encrypt and Decrypt run on AES-NI unless it is kPortable.
  CbcKernel kernel() const { return kernel_; }

  const Aes128& cipher() const { return cipher_; }

 private:
  Aes128 cipher_;
  CbcKernel kernel_;
  // AES-NI decryption schedule (aesimc of rounds 1-9, in reverse); filled
  // only when kernel_ is not kPortable.
  std::array<uint8_t, (Aes128::kRounds + 1) * Aes128::kBlockSize> dec_keys_{};
};

// Number of padding bytes needed to round `len` (+2 ESP trailer bytes when
// `esp_trailer` is true) up to a 16-byte multiple.
size_t CbcPadLength(size_t len, bool esp_trailer);

}  // namespace rb

#endif  // RB_CRYPTO_CBC_HPP_
