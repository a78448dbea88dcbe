// Output checks: every transmitted frame is matched to the frame offered
// and checked against what the workload's application must do to it.
//
// A frame is matched through the flow_seq annotation the benchmark
// stamps at offer time ((chunk << 16) | slot). Offered frames that never
// come out are counted as missing, so a drop anywhere fails the run.
#ifndef PERFBENCH_CHECKS_HPP_
#define PERFBENCH_CHECKS_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/esp.hpp"
#include "packet/packet.hpp"
#include "plan.hpp"

namespace perfbench {

inline uint64_t ChunkTag(uint32_t chunk, uint32_t slot) {
  return (uint64_t{chunk} << 16) | slot;
}

class Checker {
 public:
  explicit Checker(const Plan& plan);

  // Forgets NAT port history: call when a fresh router starts.
  void Reset();

  // Records what slot `slot` of the current chunk carries (after fill,
  // before delivery).
  void Offer(uint32_t slot, const PlanOffer& offer, const rb::Packet& p);

  // Checks the `n` frames drained for chunk `chunk`, of which `offered`
  // were handed to the router. egress[i] is the port pkts[i] left on;
  // nat_evictions[port] is the eviction count of the Nat serving that
  // ingress port (ignored on workloads without NAT). Frames may be
  // modified (ESP decapsulation of sampled frames).
  void CheckChunk(uint32_t chunk, uint32_t offered, rb::Packet* const* pkts,
                  const uint8_t* egress, uint32_t n, const uint64_t* nat_evictions);

  uint64_t checked() const { return checked_; }
  uint64_t bad() const { return bad_; }
  uint64_t missing() const { return missing_; }
  uint64_t decapsulated() const { return decapsulated_; }
  // NATed frames whose UDP checksum verifies but reads 0x0000, which a
  // receiver takes as "no checksum" (RFC 768 wants 0xffff).
  uint64_t udp_zero_checksums() const { return udp_zero_checksums_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  struct Slot {
    PlanOffer offer;
    bool seen = false;
  };

  void CheckFrame(uint32_t index, rb::Packet* p, uint8_t egress, uint32_t chunk,
                  const uint64_t* nat_evictions);
  void CheckNat(const PlanFlow& flow, uint32_t flow_index, const rb::Packet& p, uint32_t chunk,
                const uint64_t* nat_evictions);
  void Fail(const std::string& why);

  const Plan& plan_;
  Slot slots_[kChunk];
  // Byte copies of offered frames: every frame on fwd_64, sampled frames
  // on ipsec_abilene (compared after decapsulation).
  std::vector<uint8_t> copies_;
  rb::EspTunnel esp_;
  // NAT history: per flow, the last external port seen and the owning
  // Nat's eviction count when that chunk started; per Nat and port, the flow that
  // held it in the latest chunk; per Nat, the eviction count when the
  // current chunk started and the port handovers seen in it.
  std::vector<uint16_t> flow_port_;
  std::vector<uint64_t> flow_evictions_;
  std::vector<uint32_t> port_owner_[kPorts];
  std::vector<uint32_t> port_chunk_[kPorts];
  uint64_t chunk_start_evictions_[kPorts] = {};
  uint64_t handovers_[kPorts] = {};

  uint64_t checked_ = 0;
  uint64_t bad_ = 0;
  uint64_t missing_ = 0;
  uint64_t decapsulated_ = 0;
  uint64_t udp_zero_checksums_ = 0;
  std::string first_failure_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_HPP_
