// Shared graph-test fixtures: a sink that keeps what reaches it, and a
// one-packet push.
#ifndef RB_TESTS_COLLECT_SINK_HPP_
#define RB_TESTS_COLLECT_SINK_HPP_

#include <cstdint>
#include <vector>

#include "click/element.hpp"
#include "packet/batch.hpp"

namespace rb {

// Keeps every packet pushed into it, in arrival order (`got`), and the
// size of every batch it received (`batch_sizes`). The test owns the
// collected packets and releases them.
class CollectSink : public Element {
 public:
  CollectSink() : Element(1, 0) {}
  const char* class_name() const override { return "CollectSink"; }
  void PushBatch(int /*port*/, PacketBatch& batch) override {
    batch_sizes.push_back(batch.size());
    got.insert(got.end(), batch.begin(), batch.end());
    batch.Clear();
  }
  std::vector<Packet*> got;
  std::vector<uint32_t> batch_sizes;
};

// Pushes `p` into input 0 of `e` as a one-packet batch.
inline void PushOne(Element* e, Packet* p) {
  PacketBatch batch;
  batch.PushBack(p);
  e->PushBatch(0, batch);
}

}  // namespace rb

#endif  // RB_TESTS_COLLECT_SINK_HPP_
