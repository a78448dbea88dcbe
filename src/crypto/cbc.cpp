#include "crypto/cbc.hpp"

#include <cstring>

#include "common/log.hpp"
#include "crypto/aesni.hpp"

namespace rb {

bool CbcKernelSupported(CbcKernel kernel) {
  switch (kernel) {
    case CbcKernel::kPortable:
      return true;
    case CbcKernel::kAesni:
      return aesni::Supported();
    case CbcKernel::kVaes:
      return aesni::VaesSupported();
  }
  return false;
}

const char* CbcKernelName(CbcKernel kernel) {
  switch (kernel) {
    case CbcKernel::kPortable:
      return "portable";
    case CbcKernel::kAesni:
      return "aesni";
    case CbcKernel::kVaes:
      return "vaes";
  }
  return "?";
}

namespace {

CbcKernel FastestKernel() {
  CbcKernel best = CbcKernel::kPortable;
  for (CbcKernel k : kCbcKernels) {
    if (CbcKernelSupported(k)) {
      best = k;
    }
  }
  return best;
}

// Runs `kernel` over the streams, which must be whole blocks.
void RunKernel(const AesCbc& cbc, CbcKernel kernel, CbcStream* streams, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    RB_CHECK(streams[i].len % Aes128::kBlockSize == 0);
  }
  switch (kernel) {
    case CbcKernel::kPortable:
      for (size_t i = 0; i < n; ++i) {
        cbc.EncryptPortable(streams[i].data, streams[i].len, streams[i].iv);
      }
      return;
    case CbcKernel::kAesni:
      aesni::CbcEncryptMany(cbc.cipher().round_keys(), streams, n);
      return;
    case CbcKernel::kVaes:
      aesni::CbcEncryptManyVaes(cbc.cipher().round_keys(), streams, n);
      return;
  }
}

}  // namespace

AesCbc::AesCbc(const uint8_t key[Aes128::kKeySize]) : cipher_(key), kernel_(FastestKernel()) {
  if (kernel_ != CbcKernel::kPortable) {
    aesni::ExpandDecryptKeys(cipher_.round_keys(), dec_keys_.data());
  }
}

void AesCbc::Encrypt(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const {
  if (kernel_ == CbcKernel::kPortable) {
    EncryptPortable(data, len, iv);
    return;
  }
  RB_CHECK(len % Aes128::kBlockSize == 0);
  aesni::CbcEncrypt(cipher_.round_keys(), data, len, iv);
}

void AesCbc::Decrypt(uint8_t* data, size_t len, const uint8_t iv[Aes128::kBlockSize]) const {
  if (kernel_ == CbcKernel::kPortable) {
    DecryptPortable(data, len, iv);
    return;
  }
  RB_CHECK(len % Aes128::kBlockSize == 0);
  aesni::CbcDecrypt(dec_keys_.data(), data, len, iv);
}

void AesCbc::EncryptMany(CbcStream* streams, size_t n) const {
  if (n == 1) {
    Encrypt(streams[0].data, streams[0].len, streams[0].iv);
  } else {
    RunKernel(*this, kernel_, streams, n);
  }
}

void AesCbc::EncryptManyOn(CbcKernel kernel, CbcStream* streams, size_t n) const {
  RB_CHECK_MSG(CbcKernelSupported(kernel), CbcKernelName(kernel));
  RunKernel(*this, kernel, streams, n);
}

void AesCbc::EncryptPortable(uint8_t* data, size_t len,
                             const uint8_t iv[Aes128::kBlockSize]) const {
  RB_CHECK(len % Aes128::kBlockSize == 0);
  uint8_t chain[Aes128::kBlockSize];
  memcpy(chain, iv, sizeof(chain));
  for (size_t off = 0; off < len; off += Aes128::kBlockSize) {
    for (size_t i = 0; i < Aes128::kBlockSize; ++i) {
      data[off + i] ^= chain[i];
    }
    cipher_.EncryptBlock(data + off, data + off);
    memcpy(chain, data + off, sizeof(chain));
  }
}

void AesCbc::DecryptPortable(uint8_t* data, size_t len,
                             const uint8_t iv[Aes128::kBlockSize]) const {
  RB_CHECK(len % Aes128::kBlockSize == 0);
  uint8_t chain[Aes128::kBlockSize];
  uint8_t next_chain[Aes128::kBlockSize];
  memcpy(chain, iv, sizeof(chain));
  for (size_t off = 0; off < len; off += Aes128::kBlockSize) {
    memcpy(next_chain, data + off, sizeof(next_chain));
    cipher_.DecryptBlock(data + off, data + off);
    for (size_t i = 0; i < Aes128::kBlockSize; ++i) {
      data[off + i] ^= chain[i];
    }
    memcpy(chain, next_chain, sizeof(chain));
  }
}

size_t CbcPadLength(size_t len, bool esp_trailer) {
  size_t total = len + (esp_trailer ? 2 : 0);
  size_t rem = total % Aes128::kBlockSize;
  return rem == 0 ? 0 : Aes128::kBlockSize - rem;
}

}  // namespace rb
