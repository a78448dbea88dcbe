// AES-NI and VAES kernels behind AesCbc (private to src/crypto).
//
// Each kernel is compiled for its instruction set with function-level
// target attributes, so the library still loads and runs on CPUs without
// them; callers must check Supported() / VaesSupported() first. Round
// keys are the FIPS-197 schedule from Aes128::round_keys(), 11 x 16 bytes.
#ifndef RB_CRYPTO_AESNI_HPP_
#define RB_CRYPTO_AESNI_HPP_

#include <cstddef>
#include <cstdint>

#include "crypto/cbc.hpp"

namespace rb::aesni {

// True when the CPU has AES-NI and SSE4.1 (cpuid).
bool Supported();

// True when the CPU also has VAES, AVX-512F and AVX-512VL, and the OS
// saves the zmm state (cpuid and xgetbv).
bool VaesSupported();

// Decryption schedule for aesdec: round key 10, aesimc of rounds 9..1,
// then round key 0.
void ExpandDecryptKeys(const uint8_t* enc_keys, uint8_t* dec_keys);

// One CBC stream, one block at a time.
void CbcEncrypt(const uint8_t* enc_keys, uint8_t* data, size_t len, const uint8_t* iv);

// `n` CBC streams, eight abreast in xmm registers (AES-NI).
void CbcEncryptMany(const uint8_t* enc_keys, CbcStream* streams, size_t n);

// `n` CBC streams, sixteen abreast, four per zmm register (VAES).
void CbcEncryptManyVaes(const uint8_t* enc_keys, CbcStream* streams, size_t n);

// One CBC stream, eight blocks abreast.
void CbcDecrypt(const uint8_t* dec_keys, uint8_t* data, size_t len, const uint8_t* iv);

}  // namespace rb::aesni

#endif  // RB_CRYPTO_AESNI_HPP_
