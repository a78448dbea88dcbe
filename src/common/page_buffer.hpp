// Kernel-zeroed anonymous memory for the router's big arrays.
//
// The DIR-24-8 tbl24 (32 MiB) and a PacketPool's packet storage (35 MiB
// at perfbench's 16384 packets) are set up once per router and then read
// at random. A PageBuffer maps them straight from the kernel, which
// hands out pages already zeroed, so nothing fills them a second time:
// an unloaded table reads kNoRoute everywhere and a fresh packet buffer
// reads zero. A buffer of 2 MiB or more starts on a 2 MiB boundary, and
// only the whole 2 MiB pages inside it are advised as huge pages
// (MADV_HUGEPAGE; kernels with transparent huge pages in madvise mode
// need the advice). The tail past the last whole page keeps 4 KiB pages,
// so a buffer never makes more of itself resident than its own bytes.
// Huge pages cut both the set-up's page faults (one per 2 MiB instead of
// one per 4 KiB) and the TLB misses of random lookups.
#ifndef RB_COMMON_PAGE_BUFFER_HPP_
#define RB_COMMON_PAGE_BUFFER_HPP_

#include <cstddef>

namespace rb {

class PageBuffer {
 public:
  static constexpr size_t kHugePageBytes = size_t{2} << 20;

  // Maps `bytes` of zeroed memory (none for 0). Aborts if the mapping
  // fails.
  explicit PageBuffer(size_t bytes);
  ~PageBuffer();

  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  void* data() const { return data_; }
  size_t size() const { return size_; }
  template <typename T>
  T* As() const {
    return static_cast<T*>(data_);
  }

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
  void* raw_ = nullptr;  // the mapping that holds the buffer
  size_t span_ = 0;
};

}  // namespace rb

#endif  // RB_COMMON_PAGE_BUFFER_HPP_
