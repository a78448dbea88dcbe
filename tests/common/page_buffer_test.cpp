#include "common/page_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace rb {
namespace {

size_t NonzeroBytes(const PageBuffer& b) {
  const auto* bytes = b.As<const uint8_t>();
  size_t nonzero = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    nonzero += bytes[i] != 0;
  }
  return nonzero;
}

TEST(PageBufferTest, EmptyBufferHasNoMemory) {
  PageBuffer b(0);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(b.size(), 0u);
}

TEST(PageBufferTest, SmallBufferIsZeroedAndWritable) {
  PageBuffer b(5000);
  ASSERT_NE(b.data(), nullptr);
  EXPECT_EQ(b.size(), 5000u);
  EXPECT_EQ(NonzeroBytes(b), 0u);
  b.As<uint8_t>()[4999] = 1;
  EXPECT_EQ(NonzeroBytes(b), 1u);
}

// From 2 MiB up, the buffer starts on a 2 MiB boundary (so its whole huge
// pages are the ones inside it) and still reads zero to its last byte.
TEST(PageBufferTest, LargeBufferIsHugePageAlignedAndZeroed) {
  const size_t bytes = PageBuffer::kHugePageBytes * 2 + 12345;
  PageBuffer b(bytes);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % PageBuffer::kHugePageBytes, 0u);
  EXPECT_EQ(b.size(), bytes);
  EXPECT_EQ(NonzeroBytes(b), 0u);
  b.As<uint8_t>()[0] = 1;
  b.As<uint8_t>()[bytes - 1] = 2;
  EXPECT_EQ(NonzeroBytes(b), 2u);
}

}  // namespace
}  // namespace rb
