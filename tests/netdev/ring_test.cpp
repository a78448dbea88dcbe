#include "netdev/ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace rb {
namespace {

TEST(SpscRingTest, PushPopFifo) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  for (int i = 0; i < 5; ++i) {
    int v = -1;
    EXPECT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
}

TEST(SpscRingTest, EmptyPopFails) {
  SpscRing<int> ring(4);
  int v;
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(SpscRingTest, FullPushFails) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99));
  EXPECT_EQ(ring.size(), 4u);
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRingTest, WrapAroundPreservesOrder) {
  SpscRing<int> ring(4);
  int out;
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(ring.TryPush(round * 2));
    EXPECT_TRUE(ring.TryPush(round * 2 + 1));
    EXPECT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, round * 2);
    EXPECT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, round * 2 + 1);
  }
}

TEST(SpscRingTest, PushBurstPartialFit) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  const int burst[6] = {5, 6, 7, 8, 9, 10};
  EXPECT_EQ(ring.TryPushBurst(burst, 6), 3u);  // only the prefix fits
  EXPECT_EQ(ring.size(), 8u);
  int out[16];
  ASSERT_EQ(ring.TryPopBurst(out, 16), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], i);
  }
}

TEST(SpscRingTest, PushBurstExactFill) {
  SpscRing<int> ring(8);
  int burst[8];
  std::iota(burst, burst + 8, 0);
  EXPECT_EQ(ring.TryPushBurst(burst, 8), 8u);
  EXPECT_EQ(ring.size(), ring.capacity());
  EXPECT_EQ(ring.TryPushBurst(burst, 1), 0u);
  EXPECT_FALSE(ring.TryPush(99));
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, PushBurstWrapsAcrossRingEnd) {
  SpscRing<int> ring(8);
  int v;
  for (int i = 0; i < 6; ++i) {  // move head and tail to slot 6
    ASSERT_TRUE(ring.TryPush(-1));
    ASSERT_TRUE(ring.TryPop(&v));
  }
  int burst[8];
  std::iota(burst, burst + 8, 100);
  EXPECT_EQ(ring.TryPushBurst(burst, 8), 8u);  // slots 6, 7, then 0..5
  int out[8];
  ASSERT_EQ(ring.TryPopBurst(out, 8), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], 100 + i);
  }
}

TEST(SpscRingTest, PushBurstOfZeroIsNoOp) {
  SpscRing<int> ring(4);
  const int item = 7;
  EXPECT_EQ(ring.TryPushBurst(&item, 0), 0u);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
  }
  EXPECT_EQ(ring.TryPushBurst(&item, 0), 0u);  // full ring, nothing asked
  EXPECT_EQ(ring.size(), 4u);
}

// Bursts of random size against a burst consumer of random size: every
// item arrives exactly once, in order, including across partial pushes
// that leave the tail of a burst for the producer's next try.
TEST(SpscRingTest, ConcurrentBurstProducerConsumer) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kItems = 200000;
  std::thread producer([&] {
    Rng rng(11);
    uint64_t items[64];
    uint64_t next = 0;
    while (next < kItems) {
      const size_t n = std::min<uint64_t>(rng.NextRange(1, 64), kItems - next);
      for (size_t i = 0; i < n; ++i) {
        items[i] = next + i;
      }
      size_t pushed = 0;
      while (pushed < n) {
        pushed += ring.TryPushBurst(items + pushed, n - pushed);
      }
      next += n;
    }
  });
  Rng rng(12);
  uint64_t out[64];
  uint64_t expected = 0;
  while (expected < kItems) {
    const size_t n = ring.TryPopBurst(out, rng.NextRange(1, 64));
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], expected);
      expected++;
    }
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
  EXPECT_TRUE(ring.empty());
}

// Concurrency smoke test: one producer, one consumer, every item arrives
// exactly once, in order.
TEST(SpscRingTest, ConcurrentProducerConsumer) {
  SpscRing<uint64_t> ring(1024);
  constexpr uint64_t kItems = 200000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems;) {
      if (ring.TryPush(i)) {
        i++;
      }
    }
  });
  uint64_t expected = 0;
  while (expected < kItems) {
    uint64_t v;
    if (ring.TryPop(&v)) {
      ASSERT_EQ(v, expected);
      expected++;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// Regression test for the size() underflow: a third thread samples size()
// while producer and consumer run. With the old load order (head before
// tail) the sampler could read a stale head and a fresh tail, computing
// head - tail as a huge unsigned value. Run under TSan/stress; the name
// matches the CI thread-test filter (*Ring*).
TEST(SpscRingTest, ConcurrentSizeNeverExceedsCapacity) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kItems = 50000;
  std::atomic<bool> done{false};
  std::atomic<bool> size_ok{true};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      size_t s = ring.size();
      if (s > ring.capacity()) {
        size_ok.store(false, std::memory_order_release);
      }
    }
  });
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems;) {
      if (ring.TryPush(i)) {
        i++;
      }
    }
  });
  uint64_t popped = 0;
  while (popped < kItems) {
    uint64_t v;
    if (ring.TryPop(&v)) {
      popped++;
    }
  }
  producer.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_TRUE(size_ok.load());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(LockedRingTest, FifoAndCapacity) {
  LockedRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));
  int v;
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(LockedRingTest, ManyThreadsNoLossNoDuplication) {
  LockedRing<uint64_t> ring(4096);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread;) {
        if (ring.TryPush(static_cast<uint64_t>(t) * kPerThread + i)) {
          i++;
        }
      }
    });
  }
  std::vector<uint64_t> seen;
  seen.reserve(kThreads * kPerThread);
  while (seen.size() < kThreads * kPerThread) {
    uint64_t v;
    if (ring.TryPop(&v)) {
      seen.push_back(v);
    }
  }
  for (auto& p : producers) {
    p.join();
  }
  std::sort(seen.begin(), seen.end());
  for (uint64_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], i);
  }
}

}  // namespace
}  // namespace rb
