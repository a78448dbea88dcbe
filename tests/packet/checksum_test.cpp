#include "packet/checksum.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "packet/headers.hpp"

namespace rb {
namespace {

// RFC 1071 worked example: the checksum of this sequence is well known.
TEST(ChecksumTest, Rfc1071Example) {
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2 ->
  // checksum = ~0xddf2 = 0x220d.
  EXPECT_EQ(Checksum(data, sizeof(data)), 0x220d);
}

TEST(ChecksumTest, OddLengthPadsWithZero) {
  const uint8_t data[] = {0x12, 0x34, 0x56};
  // Words: 0x1234, 0x5600. Sum = 0x6834 -> checksum = ~0x6834 = 0x97cb.
  EXPECT_EQ(Checksum(data, sizeof(data)), 0x97cb);
}

TEST(ChecksumTest, ZeroBufferChecksumIsAllOnes) {
  uint8_t data[20] = {0};
  EXPECT_EQ(Checksum(data, sizeof(data)), 0xffff);
}

TEST(ChecksumTest, ChecksummedBufferVerifiesToZero) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    uint8_t buf[20];
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    // Place the checksum in bytes 10-11 (like an IP header).
    buf[10] = buf[11] = 0;
    uint16_t sum = Checksum(buf, sizeof(buf));
    buf[10] = static_cast<uint8_t>(sum >> 8);
    buf[11] = static_cast<uint8_t>(sum);
    EXPECT_EQ(Checksum(buf, sizeof(buf)), 0);
  }
}

TEST(ChecksumTest, PartialComposition) {
  Rng rng(2);
  uint8_t buf[40];
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  // Checksum over split even-sized regions equals checksum over the whole.
  uint32_t partial = ChecksumPartial(buf, 16);
  partial = ChecksumPartial(buf + 16, 24, partial);
  EXPECT_EQ(ChecksumFinish(partial), Checksum(buf, 40));
}

// Property: RFC 1624 incremental update matches full recompute for any
// single 16-bit field change.
TEST(ChecksumTest, IncrementalUpdateMatchesRecompute) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    uint8_t buf[20];
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    buf[10] = buf[11] = 0;
    uint16_t sum = Checksum(buf, sizeof(buf));
    buf[10] = static_cast<uint8_t>(sum >> 8);
    buf[11] = static_cast<uint8_t>(sum);

    // Mutate the 16-bit word at offset 8 (TTL/protocol in an IP header).
    uint16_t old_field = static_cast<uint16_t>((buf[8] << 8) | buf[9]);
    uint16_t new_field = static_cast<uint16_t>(rng.Next());
    buf[8] = static_cast<uint8_t>(new_field >> 8);
    buf[9] = static_cast<uint8_t>(new_field);
    uint16_t updated = ChecksumUpdate16(sum, old_field, new_field);
    buf[10] = static_cast<uint8_t>(updated >> 8);
    buf[11] = static_cast<uint8_t>(updated);
    EXPECT_EQ(Checksum(buf, sizeof(buf)), 0) << "trial " << trial;
  }
}

// The 32-bit variant is the audited single implementation shared by the
// injector's template fill and the NAT rewrite path. It must be
// bit-identical to chaining the 16-bit update over both halves — the
// byte-equivalence contract that let the injector switch over.
TEST(ChecksumTest, Update32MatchesChainedUpdate16) {
  Rng rng(4);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint16_t csum = static_cast<uint16_t>(rng.Next());
    const uint32_t old_field = static_cast<uint32_t>(rng.Next());
    const uint32_t new_field = static_cast<uint32_t>(rng.Next());
    uint16_t chained = ChecksumUpdate16(csum, static_cast<uint16_t>(old_field >> 16),
                                        static_cast<uint16_t>(new_field >> 16));
    chained = ChecksumUpdate16(chained, static_cast<uint16_t>(old_field),
                               static_cast<uint16_t>(new_field));
    EXPECT_EQ(ChecksumUpdate32(csum, old_field, new_field), chained) << "trial " << trial;
  }
}

TEST(ChecksumTest, Update32MatchesRecomputeOnAddressRewrite) {
  // An IP header whose source address gets NAT-rewritten: the
  // incremental patch must land exactly where a full recompute does.
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    uint8_t buf[20];
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    buf[10] = buf[11] = 0;
    uint16_t sum = Checksum(buf, sizeof(buf));
    buf[10] = static_cast<uint8_t>(sum >> 8);
    buf[11] = static_cast<uint8_t>(sum);

    const uint32_t old_src = (static_cast<uint32_t>(buf[12]) << 24) |
                             (static_cast<uint32_t>(buf[13]) << 16) |
                             (static_cast<uint32_t>(buf[14]) << 8) | buf[15];
    const uint32_t new_src = static_cast<uint32_t>(rng.Next());
    buf[12] = static_cast<uint8_t>(new_src >> 24);
    buf[13] = static_cast<uint8_t>(new_src >> 16);
    buf[14] = static_cast<uint8_t>(new_src >> 8);
    buf[15] = static_cast<uint8_t>(new_src);
    uint16_t updated = ChecksumUpdate32(sum, old_src, new_src);
    buf[10] = static_cast<uint8_t>(updated >> 8);
    buf[11] = static_cast<uint8_t>(updated);
    EXPECT_EQ(Checksum(buf, sizeof(buf)), 0) << "trial " << trial;
  }
}

// The RFC 1071 definition the word-wise sums must reproduce: big-endian
// byte pairs, a trailing odd byte as the high byte of a zero-padded pair.
uint32_t BytePairPartial(const uint8_t* data, size_t len, uint32_t sum = 0) {
  size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += (static_cast<uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < len) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  return sum;
}

uint16_t BytePairFinish(uint32_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

TEST(ChecksumDifferentialTest, EveryLengthAndStartMatchesBytePairs) {
  Rng rng(6);
  std::vector<uint8_t> random(1500 + 4);
  for (auto& b : random) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const std::vector<uint8_t> zeros(1500 + 4, 0x00);
  const std::vector<uint8_t> ones(1500 + 4, 0xff);
  int mismatches = 0;
  const std::vector<uint8_t>* buffers[] = {&random, &zeros, &ones};
  for (const std::vector<uint8_t>* buf : buffers) {
    for (size_t start = 0; start < 4; ++start) {
      const uint8_t* p = buf->data() + start;
      for (size_t len = 0; len <= 1500; ++len) {
        const uint32_t carry_in = static_cast<uint32_t>(rng.NextBounded(1u << 20));
        const bool same =
            Checksum(p, len) == BytePairFinish(BytePairPartial(p, len)) &&
            ChecksumFinish(ChecksumPartial(p, len, carry_in)) ==
                BytePairFinish(BytePairPartial(p, len, carry_in));
        if (!same && mismatches++ == 0) {
          ADD_FAILURE() << "first mismatch: start " << start << ", len " << len;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ChecksumDifferentialTest, HeaderVerifyMatchesBytePairsForEveryIhl) {
  Rng rng(7);
  uint8_t storage[64 + 1];
  uint8_t* base = storage + 1;  // an odd address
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    for (uint8_t ihl = 5; ihl <= 15; ++ihl) {
      const size_t len = 4u * ihl;
      for (size_t i = 0; i < len; ++i) {
        base[i] = static_cast<uint8_t>(rng.Next());
      }
      base[0] = static_cast<uint8_t>(0x40 | ihl);
      base[10] = base[11] = 0;
      const uint16_t valid = BytePairFinish(BytePairPartial(base, len));
      // When the rest sums to all ones the valid field is 0x0000, and
      // 0xffff verifies too (both are one's-complement zero).
      const uint16_t fields[] = {valid, static_cast<uint16_t>(valid ^ 1), 0x0000, 0xffff};
      for (const uint16_t field : fields) {
        StoreBe16(base + 10, field);
        const bool want = BytePairFinish(BytePairPartial(base, len)) == 0;
        EXPECT_EQ(Ipv4View{base}.ChecksumOk(), want)
            << "ihl " << int{ihl} << ", field " << field;
        checked++;
      }
      // A header whose valid checksum field is 0x0000: patch word 12-13
      // so the other words sum to all ones.
      base[10] = base[11] = 0;
      StoreBe16(base + 12, 0);
      const uint16_t rest = static_cast<uint16_t>(~BytePairFinish(BytePairPartial(base, len)));
      StoreBe16(base + 12, static_cast<uint16_t>(0xffff - rest));
      for (const uint16_t field : {uint16_t{0x0000}, uint16_t{0xffff}}) {
        StoreBe16(base + 10, field);
        EXPECT_EQ(BytePairFinish(BytePairPartial(base, len)), 0);
        EXPECT_TRUE(Ipv4View{base}.ChecksumOk()) << "ihl " << int{ihl} << ", field " << field;
      }
    }
  }
  EXPECT_EQ(checked, 200 * 11 * 4);
}

}  // namespace
}  // namespace rb
