// Receive-queue steering policies for the multi-queue NIC.
//
// Two policies from the paper:
//  * RSS: hash the 5-tuple and pick rx queue = hash % nqueues (§4.2), so
//    same-flow packets always land on the same queue / core.
//  * MAC table: pick the rx queue from the destination MAC address (§6.1).
//    RouteBricks encodes the cluster output node in the MAC at the input
//    node so that intermediate/output nodes never re-read IP headers; a
//    port carrying cluster-internal traffic steers by MAC so the consuming
//    core can infer the output node purely from which queue the packet
//    arrived in.
#ifndef RB_NETDEV_STEERING_HPP_
#define RB_NETDEV_STEERING_HPP_

#include <cstdint>
#include <unordered_map>

#include "packet/flow.hpp"
#include "packet/headers.hpp"
#include "packet/packet.hpp"

namespace rb {

enum class SteeringMode : uint8_t {
  kSingleQueue,  // everything to queue 0 (the pre-multi-queue baseline)
  kRss,          // hash 5-tuple across queues
  kMacTable,     // dst MAC -> queue mapping; falls back to RSS on miss
};

class Steering {
 public:
  Steering(SteeringMode mode, uint16_t num_queues);

  // Chooses the rx queue for a frame. Also stamps the packet's flow_hash
  // annotation when the frame parses as IPv4: hardware computes the RSS
  // hash for every received IPv4 frame, whatever the steering policy.
  // Inline for RSS and a single queue, with no modulo when there is one
  // queue; the MAC table is looked up out of line.
  uint16_t SelectRxQueue(Packet* p) {
    FlowKey key;
    const bool parsed = ExtractFlowKey(*p, &key);
    if (parsed) {
      p->set_flow_hash(FlowHash32(key));
    }
    if (mode_ == SteeringMode::kMacTable) {
      return SelectByMac(p, parsed);
    }
    if (!parsed || mode_ == SteeringMode::kSingleQueue || num_queues_ == 1) {
      return 0;
    }
    return static_cast<uint16_t>(p->flow_hash() % num_queues_);
  }

  // Installs dst-MAC -> queue (kMacTable mode).
  void AddMacRule(const MacAddress& mac, uint16_t queue);

  SteeringMode mode() const { return mode_; }
  uint16_t num_queues() const { return num_queues_; }

 private:
  struct MacHasher {
    size_t operator()(const MacAddress& m) const {
      uint64_t v = 0;
      for (uint8_t b : m) {
        v = (v << 8) | b;
      }
      v *= 0x9e3779b97f4a7c15ULL;
      return static_cast<size_t>(v ^ (v >> 32));
    }
  };

  // kMacTable: the rule for the frame's destination MAC, else RSS.
  uint16_t SelectByMac(Packet* p, bool parsed) const;

  SteeringMode mode_;
  uint16_t num_queues_;
  std::unordered_map<MacAddress, uint16_t, MacHasher> mac_rules_;
};

}  // namespace rb

#endif  // RB_NETDEV_STEERING_HPP_
