// AES-NI kernels behind AesCbc (private to src/crypto).
//
// Each kernel is compiled for AES-NI with a function-level target
// attribute, so the library still loads and runs on CPUs without it;
// callers must check Supported() first. Round keys are the FIPS-197
// schedule from Aes128::round_keys(), 11 x 16 bytes.
#ifndef RB_CRYPTO_AESNI_HPP_
#define RB_CRYPTO_AESNI_HPP_

#include <cstddef>
#include <cstdint>

#include "crypto/cbc.hpp"

namespace rb::aesni {

// True when the CPU has AES-NI and SSE4.1 (cpuid).
bool Supported();

// Decryption schedule for aesdec: round key 10, aesimc of rounds 9..1,
// then round key 0.
void ExpandDecryptKeys(const uint8_t* enc_keys, uint8_t* dec_keys);

// One CBC stream, one block at a time.
void CbcEncrypt(const uint8_t* enc_keys, uint8_t* data, size_t len, const uint8_t* iv);

// `n` CBC streams, eight abreast.
void CbcEncryptMany(const uint8_t* enc_keys, CbcStream* streams, size_t n);

// One CBC stream, eight blocks abreast.
void CbcDecrypt(const uint8_t* dec_keys, uint8_t* data, size_t len, const uint8_t* iv);

}  // namespace rb::aesni

#endif  // RB_CRYPTO_AESNI_HPP_
