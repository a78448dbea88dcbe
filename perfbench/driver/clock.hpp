// Monotonic nanosecond clock for the benchmark's spans and probes.
#ifndef PERFBENCH_CLOCK_HPP_
#define PERFBENCH_CLOCK_HPP_

#include <chrono>
#include <cstdint>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Keeps a computed value alive so a timed loop cannot be optimized away.
inline void KeepAlive(uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

}  // namespace perfbench

#endif  // PERFBENCH_CLOCK_HPP_
