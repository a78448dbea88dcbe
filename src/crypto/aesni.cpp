#include "crypto/aesni.hpp"

#include <cstdint>

#include "common/log.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

// Only these functions use AES-NI instructions; the rest of the binary
// keeps the baseline ISA.
#define RB_AESNI __attribute__((target("aes,sse4.1")))

namespace rb::aesni {
namespace {

constexpr int kRounds = Aes128::kRounds;
constexpr int kLanes = 8;

RB_AESNI inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

RB_AESNI inline void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

}  // namespace

bool Supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
}

RB_AESNI void ExpandDecryptKeys(const uint8_t* enc_keys, uint8_t* dec_keys) {
  Store(dec_keys, Load(enc_keys + 16 * kRounds));
  for (int r = 1; r < kRounds; ++r) {
    Store(dec_keys + 16 * r, _mm_aesimc_si128(Load(enc_keys + 16 * (kRounds - r))));
  }
  Store(dec_keys + 16 * kRounds, Load(enc_keys));
}

RB_AESNI void CbcEncrypt(const uint8_t* enc_keys, uint8_t* data, size_t len, const uint8_t* iv) {
  __m128i k[kRounds + 1];
  for (int r = 0; r <= kRounds; ++r) {
    k[r] = Load(enc_keys + 16 * r);
  }
  __m128i x = Load(iv);
  for (size_t off = 0; off < len; off += 16) {
    x = _mm_xor_si128(x, _mm_xor_si128(Load(data + off), k[0]));
#pragma GCC unroll 9
    for (int r = 1; r < kRounds; ++r) {
      x = _mm_aesenc_si128(x, k[r]);
    }
    x = _mm_aesenclast_si128(x, k[kRounds]);
    Store(data + off, x);
  }
}

// Lane l holds the running CBC state x[l] of one stream, its next block
// at ptr[l] and its blocks still to go in left[l]. Each step advances all
// eight lanes by one block, one aesenc round per lane at a time, so eight
// independent aesenc chains hide the instruction's latency. Steps run in
// stretches as long as the shortest lane's remainder (at most kRun), so
// the bookkeeping and the refill of finished lanes happen once per
// stretch. The lane loops are unrolled so that x[] and ptr[] stay in
// registers; without the pragmas GCC 12 keeps them on the stack at -O2
// and the kernel runs about five times slower. A lane whose streams have run out
// encrypts into `sink` until every lane is idle.
RB_AESNI void CbcEncryptMany(const uint8_t* enc_keys, CbcStream* streams, size_t n) {
  constexpr size_t kRun = 16;
  alignas(16) uint8_t sink[16 * kRun] = {};
  __m128i x[kLanes];
  uint8_t* ptr[kLanes];
  size_t left[kLanes];
  size_t next = 0;
  int busy = 0;
  // Loads the next non-empty stream into lane l, or parks the lane.
  auto refill = [&](int l) RB_AESNI {
    while (next < n && streams[next].len == 0) {
      ++next;
    }
    if (next < n) {
      CbcStream& s = streams[next++];
      x[l] = Load(s.iv);
      ptr[l] = s.data;
      left[l] = s.len / 16;
      ++busy;
    } else {
      x[l] = _mm_setzero_si128();
      ptr[l] = sink;
      left[l] = SIZE_MAX;
    }
  };
#pragma GCC unroll 8
  for (int l = 0; l < kLanes; ++l) {
    refill(l);
  }
  while (busy > 0) {
    size_t run = kRun;
#pragma GCC unroll 8
    for (int l = 0; l < kLanes; ++l) {
      run = left[l] < run ? left[l] : run;
    }
    for (size_t off = 0; off < 16 * run; off += 16) {
      const __m128i k0 = Load(enc_keys);
#pragma GCC unroll 8
      for (int l = 0; l < kLanes; ++l) {
        x[l] = _mm_xor_si128(x[l], _mm_xor_si128(Load(ptr[l] + off), k0));
      }
#pragma GCC unroll 9
      for (int r = 1; r < kRounds; ++r) {
        const __m128i kr = Load(enc_keys + 16 * r);
#pragma GCC unroll 8
        for (int l = 0; l < kLanes; ++l) {
          x[l] = _mm_aesenc_si128(x[l], kr);
        }
      }
      const __m128i klast = Load(enc_keys + 16 * kRounds);
#pragma GCC unroll 8
      for (int l = 0; l < kLanes; ++l) {
        x[l] = _mm_aesenclast_si128(x[l], klast);
        Store(ptr[l] + off, x[l]);
      }
    }
#pragma GCC unroll 8
    for (int l = 0; l < kLanes; ++l) {
      if (left[l] == SIZE_MAX) {
        continue;  // parked
      }
      ptr[l] += 16 * run;
      left[l] -= run;
      if (left[l] == 0) {
        --busy;
        refill(l);
      }
    }
  }
}

RB_AESNI void CbcDecrypt(const uint8_t* dec_keys, uint8_t* data, size_t len, const uint8_t* iv) {
  __m128i prev = Load(iv);
  const size_t blocks = len / 16;
  size_t i = 0;
  for (; i + kLanes <= blocks; i += kLanes) {
    uint8_t* at = data + 16 * i;
    __m128i c[kLanes];
    __m128i x[kLanes];
    const __m128i k0 = Load(dec_keys);
#pragma GCC unroll 8
    for (int l = 0; l < kLanes; ++l) {
      c[l] = Load(at + 16 * l);
      x[l] = _mm_xor_si128(c[l], k0);
    }
#pragma GCC unroll 9
    for (int r = 1; r < kRounds; ++r) {
      const __m128i kr = Load(dec_keys + 16 * r);
#pragma GCC unroll 8
      for (int l = 0; l < kLanes; ++l) {
        x[l] = _mm_aesdec_si128(x[l], kr);
      }
    }
    const __m128i klast = Load(dec_keys + 16 * kRounds);
    Store(at, _mm_xor_si128(_mm_aesdeclast_si128(x[0], klast), prev));
#pragma GCC unroll 7
    for (int l = 1; l < kLanes; ++l) {
      Store(at + 16 * l, _mm_xor_si128(_mm_aesdeclast_si128(x[l], klast), c[l - 1]));
    }
    prev = c[kLanes - 1];
  }
  for (; i < blocks; ++i) {
    uint8_t* at = data + 16 * i;
    const __m128i c = Load(at);
    __m128i x = _mm_xor_si128(c, Load(dec_keys));
    for (int r = 1; r < kRounds; ++r) {
      x = _mm_aesdec_si128(x, Load(dec_keys + 16 * r));
    }
    Store(at, _mm_xor_si128(_mm_aesdeclast_si128(x, Load(dec_keys + 16 * kRounds)), prev));
    prev = c;
  }
}

}  // namespace rb::aesni

#else  // no x86: the portable cipher is the only path

namespace rb::aesni {

bool Supported() { return false; }

void ExpandDecryptKeys(const uint8_t*, uint8_t*) { RB_CHECK_MSG(false, "AES-NI unavailable"); }

void CbcEncrypt(const uint8_t*, uint8_t*, size_t, const uint8_t*) {
  RB_CHECK_MSG(false, "AES-NI unavailable");
}

void CbcEncryptMany(const uint8_t*, CbcStream*, size_t) {
  RB_CHECK_MSG(false, "AES-NI unavailable");
}

void CbcDecrypt(const uint8_t*, uint8_t*, size_t, const uint8_t*) {
  RB_CHECK_MSG(false, "AES-NI unavailable");
}

}  // namespace rb::aesni

#endif
