// Differential tests of the AES-NI and VAES CBC kernels against the
// portable FIPS-197 path. A round trip cannot catch a kernel that is wrong
// the same way in both directions, so every fast-path output is compared
// with the portable one. On a CPU without AES-NI both sides run the
// portable code and the comparisons hold trivially; the known-answer
// vectors still bind. CbcKernelDifferentialTest calls each multi-stream
// kernel by name and skips the ones this CPU cannot run.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/cbc.hpp"
#include "crypto/esp.hpp"
#include "packet/headers.hpp"
#include "packet/pool.hpp"
#include "workload/abilene.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

using Bytes = std::vector<uint8_t>;

Bytes RandomBytes(Rng* rng, size_t n) {
  Bytes b(n);
  for (auto& x : b) {
    x = static_cast<uint8_t>(rng->Next());
  }
  return b;
}

// NIST SP 800-38A F.2.1/F.2.2 (CBC-AES128), all four blocks.
constexpr uint8_t kSpKey[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                                0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
constexpr uint8_t kSpIv[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                               0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
const Bytes kSpPlain = {
    0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a,
    0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf, 0x8e, 0x51,
    0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef,
    0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10};
const Bytes kSpCipher = {
    0x76, 0x49, 0xab, 0xac, 0x81, 0x19, 0xb2, 0x46, 0xce, 0xe9, 0x8e, 0x9b, 0x12, 0xe9, 0x19, 0x7d,
    0x50, 0x86, 0xcb, 0x9b, 0x50, 0x72, 0x19, 0xee, 0x95, 0xdb, 0x11, 0x3a, 0x91, 0x76, 0x78, 0xb2,
    0x73, 0xbe, 0xd6, 0xb8, 0xe3, 0xc1, 0x74, 0x3b, 0x71, 0x16, 0xe6, 0x9e, 0x22, 0x22, 0x95, 0x16,
    0x3f, 0xf1, 0xca, 0xa1, 0x68, 0x1f, 0xac, 0x09, 0x12, 0x0e, 0xca, 0x30, 0x75, 0x86, 0xe1, 0xa7};

TEST(CbcDifferentialTest, Fips197BlocksOnBothPaths) {
  // One CBC block under a zero IV is one raw AES block.
  struct Vector {
    uint8_t key[16];
    Bytes plain;
    Bytes cipher;
  };
  const Vector vectors[] = {
      // FIPS-197 Appendix B.
      {{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c},
       {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07,
        0x34},
       {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b,
        0x32}},
      // FIPS-197 Appendix C.1.
      {{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f},
       {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff},
       {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5,
        0x5a}},
  };
  const uint8_t zero_iv[16] = {};
  for (const Vector& v : vectors) {
    AesCbc cbc(v.key);
    Bytes fast = v.plain;
    Bytes portable = v.plain;
    cbc.Encrypt(fast.data(), fast.size(), zero_iv);
    cbc.EncryptPortable(portable.data(), portable.size(), zero_iv);
    EXPECT_EQ(fast, v.cipher);
    EXPECT_EQ(portable, v.cipher);
    cbc.Decrypt(fast.data(), fast.size(), zero_iv);
    cbc.DecryptPortable(portable.data(), portable.size(), zero_iv);
    EXPECT_EQ(fast, v.plain);
    EXPECT_EQ(portable, v.plain);
  }
}

TEST(CbcDifferentialTest, Sp80038aVectorsOnEveryPath) {
  AesCbc cbc(kSpKey);
  Bytes fast = kSpPlain;
  Bytes portable = kSpPlain;
  cbc.Encrypt(fast.data(), fast.size(), kSpIv);
  cbc.EncryptPortable(portable.data(), portable.size(), kSpIv);
  EXPECT_EQ(fast, kSpCipher);
  EXPECT_EQ(portable, kSpCipher);

  // The vector as 1..12 streams of one multi-stream call.
  for (size_t n = 1; n <= 12; ++n) {
    std::vector<Bytes> bufs(n, kSpPlain);
    std::vector<CbcStream> streams(n);
    for (size_t i = 0; i < n; ++i) {
      streams[i].data = bufs[i].data();
      streams[i].len = bufs[i].size();
      memcpy(streams[i].iv, kSpIv, 16);
    }
    cbc.EncryptMany(streams.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bufs[i], kSpCipher) << "stream " << i << " of " << n;
    }
  }

  Bytes back = kSpCipher;
  cbc.Decrypt(back.data(), back.size(), kSpIv);
  EXPECT_EQ(back, kSpPlain);
  back = kSpCipher;
  cbc.DecryptPortable(back.data(), back.size(), kSpIv);
  EXPECT_EQ(back, kSpPlain);
}

TEST(CbcDifferentialTest, FuzzedStreamsMatchPortableBothDirections) {
  Rng rng(2501);
  for (size_t blocks = 1; blocks <= 95; ++blocks) {
    const Bytes key = RandomBytes(&rng, 16);
    const Bytes iv = RandomBytes(&rng, 16);
    const Bytes plain = RandomBytes(&rng, blocks * 16);
    AesCbc cbc(key.data());

    Bytes fast = plain;
    Bytes portable = plain;
    cbc.Encrypt(fast.data(), fast.size(), iv.data());
    cbc.EncryptPortable(portable.data(), portable.size(), iv.data());
    ASSERT_EQ(fast, portable) << "encrypt, " << blocks << " blocks";

    // Decrypt arbitrary ciphertext too, not only our own output.
    const Bytes cipher = RandomBytes(&rng, blocks * 16);
    fast = cipher;
    portable = cipher;
    cbc.Decrypt(fast.data(), fast.size(), iv.data());
    cbc.DecryptPortable(portable.data(), portable.size(), iv.data());
    ASSERT_EQ(fast, portable) << "decrypt, " << blocks << " blocks";

    Bytes round = plain;
    cbc.Encrypt(round.data(), round.size(), iv.data());
    cbc.Decrypt(round.data(), round.size(), iv.data());
    ASSERT_EQ(round, plain) << "round trip, " << blocks << " blocks";
  }
}

TEST(CbcDifferentialTest, EncryptManyEqualsPerStreamPortable) {
  Rng rng(77);
  const Bytes key = RandomBytes(&rng, 16);
  AesCbc cbc(key.data());
  AbileneSizeDistribution abilene;
  for (size_t n = 1; n <= 256; n += (n < 20 ? 1 : 13)) {
    std::vector<Bytes> fast(n);
    std::vector<Bytes> portable(n);
    std::vector<CbcStream> streams(n);
    for (size_t i = 0; i < n; ++i) {
      // Abilene-sized streams, with empty and one-block ones mixed in.
      size_t len = rng.NextBool(0.1) ? 16 * rng.NextBounded(2) : abilene.NextSize(&rng);
      len += CbcPadLength(len, /*esp_trailer=*/false);
      fast[i] = RandomBytes(&rng, len);
      portable[i] = fast[i];
      streams[i].data = fast[i].data();
      streams[i].len = len;
      const Bytes iv = RandomBytes(&rng, 16);
      memcpy(streams[i].iv, iv.data(), 16);
      cbc.EncryptPortable(portable[i].data(), len, iv.data());
    }
    cbc.EncryptMany(streams.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(fast[i], portable[i]) << "stream " << i << " of " << n;
    }
  }
}

TEST(CbcDifferentialDeathTest, EncryptManyRejectsPartialBlocks) {
  const uint8_t key[16] = {};
  AesCbc cbc(key);
  uint8_t a[32] = {};
  uint8_t b[20] = {};
  CbcStream streams[2];
  streams[0].data = a;
  streams[0].len = sizeof(a);
  streams[1].data = b;
  streams[1].len = sizeof(b);
  EXPECT_DEATH(cbc.EncryptMany(streams, 2), "");
}

// ---- every multi-stream kernel, called by name, against the portable cipher ----

// Streams laid out back to back in one arena at odd addresses, with
// canary bytes between them, plus what the portable cipher makes of each.
class StreamSet {
 public:
  static constexpr size_t kGap = 3;
  static constexpr uint8_t kCanary = 0xc5;

  StreamSet(Rng* rng, const std::vector<size_t>& lens) : lens_(lens), ivs_(lens.size()) {
    size_t total = 1;  // the first stream starts at an odd offset
    for (size_t len : lens) {
      total += len + kGap;
    }
    plain_ = RandomBytes(rng, total);
    for (size_t i = 0; i < lens.size(); ++i) {
      const Bytes iv = RandomBytes(rng, 16);
      memcpy(ivs_[i].data(), iv.data(), 16);
    }
    size_t at = 1;
    for (size_t len : lens) {
      offsets_.push_back(at);
      for (size_t g = 0; g < kGap; ++g) {
        plain_[at + len + g] = kCanary;
      }
      at += len + kGap;
    }
  }

  size_t size() const { return lens_.size(); }

  // The arena after the portable cipher has encrypted every stream.
  Bytes Expected(const AesCbc& cbc) const {
    Bytes out = plain_;
    for (size_t i = 0; i < size(); ++i) {
      cbc.EncryptPortable(out.data() + offsets_[i], lens_[i], ivs_[i].data());
    }
    return out;
  }

  // The arena after one EncryptManyOn call over the streams, handed to it
  // in `order`.
  Bytes Run(const AesCbc& cbc, CbcKernel kernel, const std::vector<size_t>& order) const {
    Bytes out = plain_;
    std::vector<CbcStream> streams(order.size());
    for (size_t j = 0; j < order.size(); ++j) {
      streams[j].data = out.data() + offsets_[order[j]];
      streams[j].len = lens_[order[j]];
      memcpy(streams[j].iv, ivs_[order[j]].data(), 16);
    }
    cbc.EncryptManyOn(kernel, streams.data(), streams.size());
    return out;
  }

  std::vector<size_t> InOrder() const {
    std::vector<size_t> order(size());
    for (size_t i = 0; i < size(); ++i) {
      order[i] = i;
    }
    return order;
  }

 private:
  std::vector<size_t> lens_;
  std::vector<std::array<uint8_t, 16>> ivs_;
  std::vector<size_t> offsets_;
  Bytes plain_;
};

// ESP payload lengths of Abilene-mix frames, with empty, one-block and
// odd-sized streams mixed in.
size_t MixedLength(Rng* rng, AbileneSizeDistribution* sizes) {
  switch (rng->NextBounded(8)) {
    case 0:
      return 0;
    case 1:
      return 16;
    case 2:
      return 16 * (1 + rng->NextBounded(120));
    default: {
      const size_t inner = sizes->NextSize(rng) - 14;
      return inner + CbcPadLength(inner, /*esp_trailer=*/true) + 2;
    }
  }
}

}  // namespace

// Names the kernel in test listings instead of its byte value (found by
// argument-dependent lookup, so it lives in CbcKernel's namespace).
void PrintTo(CbcKernel kernel, std::ostream* os) { *os << CbcKernelName(kernel); }

namespace {

class CbcKernelDifferentialTest : public ::testing::TestWithParam<CbcKernel> {
 protected:
  void SetUp() override {
    if (!CbcKernelSupported(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the " << CbcKernelName(GetParam()) << " kernel";
    }
  }

  // Runs `set` on the kernel in call order and in a shuffled order, and
  // expects the portable cipher's bytes from both.
  void ExpectPortableBytes(const AesCbc& cbc, const StreamSet& set, Rng* rng,
                           const std::string& what) {
    const Bytes expected = set.Expected(cbc);
    ASSERT_EQ(set.Run(cbc, GetParam(), set.InOrder()), expected) << what;
    std::vector<size_t> shuffled = set.InOrder();
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng->NextBounded(i)]);
    }
    ASSERT_EQ(set.Run(cbc, GetParam(), shuffled), expected) << what << ", shuffled";
  }
};

TEST_P(CbcKernelDifferentialTest, EveryStreamCountMatchesPortable) {
  Rng rng(3501);
  const Bytes key = RandomBytes(&rng, 16);
  AesCbc cbc(key.data());
  AbileneSizeDistribution sizes;
  std::vector<size_t> counts;
  for (size_t n = 1; n <= 40; ++n) {
    counts.push_back(n);
  }
  counts.insert(counts.end(), {100, 256, 1000});
  for (size_t n : counts) {
    std::vector<size_t> lens(n);
    for (size_t& len : lens) {
      len = MixedLength(&rng, &sizes);
    }
    ExpectPortableBytes(cbc, StreamSet(&rng, lens), &rng, "n = " + std::to_string(n));
  }
}

TEST_P(CbcKernelDifferentialTest, EdgeShapesMatchPortable) {
  Rng rng(3502);
  const Bytes key = RandomBytes(&rng, 16);
  AesCbc cbc(key.data());
  // A call with no streams touches nothing.
  ExpectPortableBytes(cbc, StreamSet(&rng, {}), &rng, "no streams");
  const std::vector<std::pair<std::string, std::vector<size_t>>> shapes = {
      {"all empty", std::vector<size_t>(20, 0)},
      {"all one block", std::vector<size_t>(37, 16)},
      {"empty and one-block", {0, 16, 0, 0, 16, 16, 0, 16, 0, 16, 16, 16, 16, 0, 16, 16, 16, 0}},
      {"all equal, 36 blocks", std::vector<size_t>(33, 576)},
      {"all equal, 93 blocks", std::vector<size_t>(17, 1488)},
      {"one 1500 B among 64 B, first", [] {
         std::vector<size_t> v(31, 64);
         v.insert(v.begin(), 1488);
         return v;
       }()},
      {"one 1500 B among 64 B, last", [] {
         std::vector<size_t> v(31, 64);
         v.push_back(1488);
         return v;
       }()},
      {"one 1500 B among 64 B, middle", [] {
         std::vector<size_t> v(40, 64);
         v[17] = 1488;
         return v;
       }()},
      {"at the long-stream threshold", {496, 512, 528, 496, 512, 528, 16, 0, 512}},
  };
  for (const auto& [what, lens] : shapes) {
    ExpectPortableBytes(cbc, StreamSet(&rng, lens), &rng, what);
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, CbcKernelDifferentialTest, ::testing::ValuesIn(kCbcKernels),
                         [](const ::testing::TestParamInfo<CbcKernel>& param) {
                           return std::string(CbcKernelName(param.param));
                         });

// ---- ESP: the batch path against per-packet portable encapsulation ----

EspConfig TestConfig() {
  EspConfig cfg;
  for (int i = 0; i < 16; ++i) {
    cfg.key[i] = static_cast<uint8_t>(0xa5 ^ (i * 29));
  }
  return cfg;
}

// Tunnel-mode ESP (RFC 4303) of one frame, written out independently of
// EspTunnel and encrypted with the portable cipher. Returns the expected
// frame, or nothing when the frame must be refused.
class ReferenceEsp {
 public:
  explicit ReferenceEsp(const EspConfig& cfg) : cfg_(cfg), cbc_(cfg.key) {}

  Bytes Encapsulate(const Bytes& frame, uint32_t headroom, uint32_t tailroom) {
    constexpr uint32_t kOuter = Ipv4View::kMinSize + 8 + 16;
    if (frame.size() < EthernetView::kSize + Ipv4View::kMinSize ||
        LoadBe16(frame.data() + 12) != EthernetView::kTypeIpv4 || headroom < kOuter) {
      return {};
    }
    Bytes body(frame.begin() + EthernetView::kSize, frame.end());
    const size_t pad = (16 - (body.size() + 2) % 16) % 16;
    if (tailroom < pad + 2) {
      return {};
    }
    for (size_t i = 0; i < pad; ++i) {
      body.push_back(static_cast<uint8_t>(i + 1));
    }
    body.push_back(static_cast<uint8_t>(pad));
    body.push_back(4);
    uint8_t iv[16] = {};
    StoreBe32(iv + 8, static_cast<uint32_t>(iv_counter_ >> 32));
    StoreBe32(iv + 12, static_cast<uint32_t>(iv_counter_));
    ++iv_counter_;
    cbc_.EncryptPortable(body.data(), body.size(), iv);

    Bytes out(EthernetView::kSize + kOuter);
    memcpy(out.data(), frame.data(), EthernetView::kSize);
    uint8_t* outer = out.data() + EthernetView::kSize;
    Ipv4View::WriteDefault(outer, cfg_.tunnel_src, cfg_.tunnel_dst, Ipv4View::kProtoEsp,
                           static_cast<uint16_t>(kOuter + body.size()));
    StoreBe32(outer + Ipv4View::kMinSize, cfg_.spi);
    StoreBe32(outer + Ipv4View::kMinSize + 4, seq_++);
    memcpy(outer + Ipv4View::kMinSize + 8, iv, 16);
    out.insert(out.end(), body.begin(), body.end());
    return out;
  }

  uint32_t next_seq() const { return seq_; }

 private:
  EspConfig cfg_;
  AesCbc cbc_;
  // EspTunnel's first sequence number and IV counter.
  uint32_t seq_ = 1;
  uint64_t iv_counter_ = 0x5242000000000000ULL;
};

// An Abilene-sized UDP frame; every seventh is ARP, every eleventh has
// no tailroom and every thirteenth too little headroom.
Packet* MixedFrame(PacketPool* pool, Rng* rng, AbileneSizeDistribution* sizes, uint32_t i) {
  FrameSpec spec;
  spec.size = i % 11 == 5 ? Packet::kMaxCapacity - Packet::kDefaultHeadroom
                          : sizes->NextSize(rng) + static_cast<uint32_t>(rng->NextBounded(3));
  spec.flow.src_ip = 0x0a000000 | i;
  spec.flow.dst_ip = 0xc0a80002;
  spec.flow.src_port = static_cast<uint16_t>(1000 + i);
  spec.flow.dst_port = 5678;
  spec.flow.protocol = Ipv4View::kProtoUdp;
  Packet* p = AllocFrame(spec, pool);
  // A payload the cipher can tell apart.
  for (uint32_t b = 42; b < p->length(); ++b) {
    p->data()[b] = static_cast<uint8_t>(rng->Next());
  }
  if (i % 7 == 3) {
    EthernetView{p->data()}.set_ether_type(EthernetView::kTypeArp);
  }
  if (i % 13 == 8) {
    // Same bytes, moved to leave 28 bytes of headroom.
    const uint32_t len = p->length();
    const uint32_t shift = p->headroom() - 28;
    p->Push(shift);
    memmove(p->data(), p->data() + shift, len);
    p->Trim(shift);
  }
  return p;
}

TEST(EspBatchDifferentialTest, BatchMatchesPerPacketPortableAndRoundTrips) {
  PacketPool pool(512);
  EspTunnel tunnel(TestConfig());
  EspTunnel decap(TestConfig());
  ReferenceEsp reference(TestConfig());
  Rng rng(12);
  AbileneSizeDistribution sizes;

  uint32_t frame_index = 0;
  size_t accepted = 0;
  size_t refused = 0;
  // Batch sizes around the eight-lane width and the driver's burst sizes.
  for (size_t n : {1u, 2u, 7u, 8u, 9u, 16u, 31u, 32u, 64u, 100u, 256u}) {
    std::vector<Packet*> batch;
    std::vector<Bytes> originals;
    std::vector<Bytes> expected;
    for (size_t i = 0; i < n; ++i) {
      Packet* p = MixedFrame(&pool, &rng, &sizes, frame_index++);
      originals.emplace_back(p->data(), p->data() + p->length());
      expected.push_back(reference.Encapsulate(originals.back(), p->headroom(), p->tailroom()));
      batch.push_back(p);
    }
    auto ok = std::make_unique<bool[]>(n);
    tunnel.EncapsulateBatch(batch.data(), n, ok.get());

    for (size_t i = 0; i < n; ++i) {
      Packet* p = batch[i];
      const Bytes got(p->data(), p->data() + p->length());
      ASSERT_EQ(ok[i], !expected[i].empty()) << "batch of " << n << ", frame " << i;
      if (!ok[i]) {
        EXPECT_EQ(got, originals[i]) << "a refused frame must stay as it was";
        ++refused;
      } else {
        ASSERT_EQ(got, expected[i]) << "batch of " << n << ", frame " << i;
        ASSERT_TRUE(decap.Decapsulate(p));
        const Bytes back(p->data(), p->data() + p->length());
        EXPECT_EQ(back, originals[i]) << "decapsulation must round-trip";
        ++accepted;
      }
      pool.Free(p);
    }
    EXPECT_EQ(tunnel.next_seq(), reference.next_seq());
  }
  EXPECT_GT(accepted, 300u);
  EXPECT_GT(refused, 100u);
}

TEST(EspBatchDifferentialTest, SinglePacketEncapsulateIsTheBatchOfOne) {
  PacketPool pool(64);
  EspTunnel single(TestConfig());
  ReferenceEsp reference(TestConfig());
  Rng rng(5);
  AbileneSizeDistribution sizes;
  for (uint32_t i = 0; i < 40; ++i) {
    Packet* p = MixedFrame(&pool, &rng, &sizes, i);
    const Bytes original(p->data(), p->data() + p->length());
    const Bytes expected = reference.Encapsulate(original, p->headroom(), p->tailroom());
    ASSERT_EQ(single.Encapsulate(p), !expected.empty()) << i;
    const Bytes got(p->data(), p->data() + p->length());
    EXPECT_EQ(got, expected.empty() ? original : expected) << i;
    pool.Free(p);
  }
}

}  // namespace
}  // namespace rb
