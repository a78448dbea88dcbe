#include "common/page_buffer.hpp"

#include <sys/mman.h>

#include <cstdint>

#include "common/log.hpp"

namespace rb {

PageBuffer::PageBuffer(size_t bytes) : size_(bytes) {
  if (bytes == 0) {
    return;
  }
  // A buffer that holds a huge page is over-mapped by one, so that it can
  // start on a 2 MiB boundary. The unused head and tail are never touched
  // and cost address space only.
  const bool huge = bytes >= kHugePageBytes;
  span_ = huge ? bytes + kHugePageBytes : bytes;
  raw_ = mmap(nullptr, span_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  RB_CHECK_MSG(raw_ != MAP_FAILED, "PageBuffer: mmap failed");
  if (!huge) {
    data_ = raw_;
    return;
  }
  const uintptr_t start = (reinterpret_cast<uintptr_t>(raw_) + kHugePageBytes - 1) &
                          ~(uintptr_t{kHugePageBytes} - 1);
  data_ = reinterpret_cast<void*>(start);
#ifdef MADV_HUGEPAGE
  // Advice only: a kernel without huge pages leaves the buffer as it is.
  madvise(data_, bytes / kHugePageBytes * kHugePageBytes, MADV_HUGEPAGE);
#endif
}

PageBuffer::~PageBuffer() {
  if (data_ != nullptr) {
    munmap(raw_, span_);
  }
}

}  // namespace rb
