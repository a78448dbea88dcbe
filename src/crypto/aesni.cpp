#include "crypto/aesni.hpp"

#include <cstdint>

#include "common/log.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

// Only these functions use AES-NI, VAES and AVX-512 instructions; the rest
// of the binary keeps the baseline ISA.
#define RB_AESNI __attribute__((target("aes,sse4.1")))
#define RB_VAES __attribute__((target("aes,sse4.1,vaes,avx512f,avx512vl")))

namespace rb::aesni {
namespace {

constexpr int kRounds = Aes128::kRounds;

RB_AESNI inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

RB_AESNI inline void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// The register widths the multi-stream scheduler below runs at. A width
// packs kPer streams into each of its kRegs registers; stream lane l sits
// in register l / kPer, slot l % kPer. Each operation carries the ISA it
// needs as a target attribute and is inlined into the kernel that
// instantiates the scheduler, whose own target covers it. Registers pass
// by reference: a 512-bit value returned through a function without
// AVX-512 would change the calling convention (-Wpsabi).
//
// The AVX-512 forms that GCC 12 builds on _mm*_undefined_* (plain
// broadcast and extract) trip -Wuninitialized, so the masked forms with
// an all-ones mask and a zero source stand in; they compile to the same
// unmasked instructions.

// AES-NI: eight xmm registers, one stream each.
struct Xmm {
  using Reg = __m128i;
  static constexpr int kRegs = 8;
  static constexpr int kPer = 1;

  // A round key in every slot.
  RB_AESNI static void Key(Reg& k, const uint8_t* key) { k = Load(key); }
  RB_AESNI static void Zero(Reg& x) { x = _mm_setzero_si128(); }
  // Loads slot j's chaining value from `iv`.
  RB_AESNI static void SetSlot(Reg& x, int /*j*/, const uint8_t* iv) { x = Load(iv); }
  // x ^= (the next plaintext block of each slot) ^ round key 0.
  RB_AESNI static void Whiten(Reg& x, uint8_t* const* ptr, size_t off, const Reg& k0) {
    x = _mm_xor_si128(x, _mm_xor_si128(Load(ptr[0] + off), k0));
  }
  RB_AESNI static void Round(Reg& x, const Reg& k) { x = _mm_aesenc_si128(x, k); }
  // The last round; each slot's ciphertext goes back over its plaintext.
  RB_AESNI static void LastRound(Reg& x, const Reg& k, uint8_t* const* ptr, size_t off) {
    x = _mm_aesenclast_si128(x, k);
    Store(ptr[0] + off, x);
  }
};

// VAES: four zmm registers, four streams each. A step's plaintext is
// gathered with one 128-bit load and three vinserti32x4, folded with the
// chain and round key 0 by one vpternlogq, and the ciphertext scattered
// with vextracti32x4 stores. Sixteen lanes is the width that fits: their
// pointers already fill the general registers, and a 24-lane variant
// spilled them and ran about half as fast.
struct Zmm {
  using Reg = __m512i;
  static constexpr int kRegs = 4;
  static constexpr int kPer = 4;

  RB_VAES static void Key(Reg& k, const uint8_t* key) {
    k = _mm512_maskz_broadcast_i32x4(static_cast<__mmask16>(-1), Load(key));
  }
  RB_VAES static void Zero(Reg& x) { x = _mm512_setzero_si512(); }
  RB_VAES static void SetSlot(Reg& x, int j, const uint8_t* iv) {
    x = _mm512_mask_broadcast_i32x4(x, static_cast<__mmask16>(0xf << (4 * j)), Load(iv));
  }
  RB_VAES static void Whiten(Reg& x, uint8_t* const* ptr, size_t off, const Reg& k0) {
    Reg p = _mm512_zextsi128_si512(Load(ptr[0] + off));
    p = _mm512_inserti32x4(p, Load(ptr[1] + off), 1);
    p = _mm512_inserti32x4(p, Load(ptr[2] + off), 2);
    p = _mm512_inserti32x4(p, Load(ptr[3] + off), 3);
    x = _mm512_ternarylogic_epi64(x, p, k0, 0x96);  // x ^ p ^ k0
  }
  RB_VAES static void Round(Reg& x, const Reg& k) { x = _mm512_aesenc_epi128(x, k); }
  RB_VAES static void LastRound(Reg& x, const Reg& k, uint8_t* const* ptr, size_t off) {
    x = _mm512_aesenclast_epi128(x, k);
    const __m128i zero = _mm_setzero_si128();
    const auto all = static_cast<__mmask8>(-1);
    Store(ptr[0] + off, _mm512_mask_extracti32x4_epi32(zero, all, x, 0));
    Store(ptr[1] + off, _mm512_mask_extracti32x4_epi32(zero, all, x, 1));
    Store(ptr[2] + off, _mm512_mask_extracti32x4_epi32(zero, all, x, 2));
    Store(ptr[3] + off, _mm512_mask_extracti32x4_epi32(zero, all, x, 3));
  }
};

// Hands out a call's non-empty streams, those of at least kLongBytes
// first and each group in call order. Starting the long streams first
// keeps a burst's 1500 B frames from running alone at its end; two groups
// did as well as a full sort by length.
class LongestFirst {
 public:
  LongestFirst(CbcStream* streams, size_t n) : streams_(streams), n_(n) {}

  // The next stream, or nullptr once every stream has been handed out.
  CbcStream* Next() {
    for (;;) {
      while (next_ < n_) {
        CbcStream* s = &streams_[next_++];
        if (s->len != 0 && (s->len >= kLongBytes) == long_pass_) {
          return s;
        }
      }
      if (!long_pass_) {
        return nullptr;
      }
      long_pass_ = false;
      next_ = 0;
    }
  }

 private:
  static constexpr size_t kLongBytes = 32 * Aes128::kBlockSize;

  CbcStream* streams_;
  size_t n_;
  size_t next_ = 0;
  bool long_pass_ = true;
};

// The multi-stream CBC scheduler, shared by both widths. Lane l holds one
// stream: its running CBC state in slot l of x[], its next block at
// ptr[l] and its blocks still to go in left[l]. Each step advances every
// lane by one block, one round per register at a time, so kRegs
// independent aesenc chains hide the instruction's latency. Steps run in
// stretches as long as the shortest lane's remainder (at most kRun), so
// the bookkeeping and the refill of finished lanes happen once per
// stretch. The lane loops are unrolled so that x[] stays in registers;
// without the pragmas GCC 12 keeps it on the stack at -O2 and the kernel
// runs about five times slower. A lane with no stream left encrypts into
// `sink` until every lane is idle. Each stream's bytes depend only on its
// own data, IV and key, whatever the order or number of streams.
//
// Always inlined, and without a target of its own: the width's
// operations can only be inlined once it sits in its kernel.
template <class W>
[[gnu::always_inline]] inline void CbcEncryptLanes(const uint8_t* enc_keys, CbcStream* streams,
                                                   size_t n) {
  constexpr int kLanes = W::kRegs * W::kPer;
  constexpr size_t kRun = 16;
  constexpr size_t kParked = SIZE_MAX;
  alignas(64) uint8_t sink[16 * kRun] = {};
  typename W::Reg k[kRounds + 1];
  typename W::Reg x[W::kRegs];
  uint8_t* ptr[kLanes];
  size_t left[kLanes];
#pragma GCC unroll 11
  for (int r = 0; r <= kRounds; ++r) {
    W::Key(k[r], enc_keys + 16 * r);
  }
#pragma GCC unroll 8
  for (int g = 0; g < W::kRegs; ++g) {
    W::Zero(x[g]);
  }
#pragma GCC unroll 16
  for (int l = 0; l < kLanes; ++l) {
    ptr[l] = sink;
    left[l] = 0;
  }
  LongestFirst queue(streams, n);
  for (;;) {
    // Refills every lane whose stream has ended (all of them at first),
    // and parks a lane when no stream is left.
    size_t run = kParked;
#pragma GCC unroll 16
    for (int l = 0; l < kLanes; ++l) {
      if (left[l] == 0) {
        if (CbcStream* s = queue.Next()) {
          W::SetSlot(x[l / W::kPer], l % W::kPer, s->iv);
          ptr[l] = s->data;
          left[l] = s->len / 16;
        } else {
          ptr[l] = sink;
          left[l] = kParked;
        }
      }
      run = left[l] < run ? left[l] : run;
    }
    if (run == kParked) {
      return;  // every lane parked
    }
    run = run < kRun ? run : kRun;
    for (size_t off = 0; off < 16 * run; off += 16) {
#pragma GCC unroll 8
      for (int g = 0; g < W::kRegs; ++g) {
        W::Whiten(x[g], ptr + g * W::kPer, off, k[0]);
      }
#pragma GCC unroll 9
      for (int r = 1; r < kRounds; ++r) {
#pragma GCC unroll 8
        for (int g = 0; g < W::kRegs; ++g) {
          W::Round(x[g], k[r]);
        }
      }
#pragma GCC unroll 8
      for (int g = 0; g < W::kRegs; ++g) {
        W::LastRound(x[g], k[kRounds], ptr + g * W::kPer, off);
      }
    }
#pragma GCC unroll 16
    for (int l = 0; l < kLanes; ++l) {
      if (left[l] != kParked) {
        ptr[l] += 16 * run;
        left[l] -= run;
      }
    }
  }
}

}  // namespace

bool Supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
}

bool VaesSupported() {
  // libgcc reports the AVX-512 features only when XCR0 shows the OS saves
  // the opmask and zmm state.
  return Supported() && __builtin_cpu_supports("vaes") && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl");
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

RB_AESNI void CbcEncryptMany(const uint8_t* enc_keys, CbcStream* streams, size_t n) {
  CbcEncryptLanes<Xmm>(enc_keys, streams, n);
}

RB_VAES void CbcEncryptManyVaes(const uint8_t* enc_keys, CbcStream* streams, size_t n) {
  CbcEncryptLanes<Zmm>(enc_keys, streams, n);
}

RB_AESNI void CbcDecrypt(const uint8_t* dec_keys, uint8_t* data, size_t len, const uint8_t* iv) {
  constexpr int kLanes = 8;
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

bool VaesSupported() { return false; }

void ExpandDecryptKeys(const uint8_t*, uint8_t*) { RB_CHECK_MSG(false, "AES-NI unavailable"); }

void CbcEncrypt(const uint8_t*, uint8_t*, size_t, const uint8_t*) {
  RB_CHECK_MSG(false, "AES-NI unavailable");
}

void CbcEncryptMany(const uint8_t*, CbcStream*, size_t) {
  RB_CHECK_MSG(false, "AES-NI unavailable");
}

void CbcEncryptManyVaes(const uint8_t*, CbcStream*, size_t) {
  RB_CHECK_MSG(false, "VAES unavailable");
}

void CbcDecrypt(const uint8_t*, uint8_t*, size_t, const uint8_t*) {
  RB_CHECK_MSG(false, "AES-NI unavailable");
}

}  // namespace rb::aesni

#endif
