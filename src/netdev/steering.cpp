#include "netdev/steering.hpp"

#include "common/log.hpp"

namespace rb {

Steering::Steering(SteeringMode mode, uint16_t num_queues) : mode_(mode), num_queues_(num_queues) {
  RB_CHECK(num_queues >= 1);
}

uint16_t Steering::SelectByMac(Packet* p, bool parsed) const {
  if (p->length() >= EthernetView::kSize) {
    EthernetView eth{p->data()};
    auto it = mac_rules_.find(eth.dst());
    if (it != mac_rules_.end()) {
      return it->second;
    }
  }
  return parsed ? static_cast<uint16_t>(p->flow_hash() % num_queues_) : 0;
}

void Steering::AddMacRule(const MacAddress& mac, uint16_t queue) {
  RB_CHECK(queue < num_queues_);
  mac_rules_[mac] = queue;
}

}  // namespace rb
