// Poll-mode driver binding: the software analogue of the paper's extended
// 10 GbE driver. A Driver instance fronts one (port, rx-queue) pair for
// one polling core and implements poll-driven batching: each Poll() call
// retrieves up to `kp` packets (kp = 32 is Click's default maximum).
//
// The driver also keeps the bookkeeping the §5.3 methodology needs: total
// polls, empty polls, and packets retrieved, so the "factor out empty-poll
// cycles" correction (ce × Er) can be computed exactly as the authors do.
#ifndef RB_NETDEV_DRIVER_HPP_
#define RB_NETDEV_DRIVER_HPP_

#include <cstdint>

#include "netdev/nic.hpp"
#include "packet/batch.hpp"

namespace rb {

struct DriverConfig {
  uint16_t kp = 32;  // packets per poll (1 = no poll-driven batching)
};

class Driver {
 public:
  Driver(NicPort* port, uint16_t rx_queue, const DriverConfig& config);

  // Polls the bound rx queue; appends up to kp packets to `out`.
  // Returns the number retrieved (0 counts as an empty poll). `max`
  // further caps the burst below kp — backpressure-aware pollers
  // (FromDevice) pass the downstream headroom so overflow packets stay in
  // the NIC ring instead of being retrieved only to be tail-dropped at a
  // full queue.
  size_t Poll(PacketBatch* out) { return Poll(out, config_.kp); }
  size_t Poll(PacketBatch* out, size_t max);

  NicPort* port() { return port_; }
  uint16_t rx_queue() const { return rx_queue_; }
  const DriverConfig& config() const { return config_; }

  uint64_t polls() const { return polls_; }
  uint64_t empty_polls() const { return empty_polls_; }
  uint64_t packets() const { return packets_; }

 private:
  NicPort* port_;
  uint16_t rx_queue_;
  DriverConfig config_;
  uint64_t polls_ = 0;
  uint64_t empty_polls_ = 0;
  uint64_t packets_ = 0;
};

}  // namespace rb

#endif  // RB_NETDEV_DRIVER_HPP_
