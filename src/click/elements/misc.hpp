// Small utility elements: Counter, Discard, Tee, Paint/PaintSwitch,
// SetFlowHash, and ForEach glue for tests. Counter also forwards pulls,
// so it is the one element that may sit between a Queue and its
// ToDevice.
#ifndef RB_CLICK_ELEMENTS_MISC_HPP_
#define RB_CLICK_ELEMENTS_MISC_HPP_

#include <functional>
#include <vector>

#include "click/element.hpp"
#include "common/stats.hpp"
#include "packet/flow.hpp"

namespace rb {

// Counts packets and bytes, passes through (pushed or pulled).
class CounterElement : public Element {
 public:
  CounterElement() : Element(1, 1) {}
  const char* class_name() const override { return "Counter"; }
  void PushBatch(int port, PacketBatch& batch) override;
  size_t PullBatch(int port, PacketBatch* out, int max) override;
  bool pulls_input() const override { return true; }

  const PortCounters& counters() const { return counters_; }

 private:
  PortCounters counters_;
};

// Frees every packet it receives.
class Discard : public Element {
 public:
  Discard() : Element(1, 0) {}
  const char* class_name() const override { return "Discard"; }
  void PushBatch(int port, PacketBatch& batch) override;

  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

// Copies each packet to all outputs (allocating the copies from the
// original packet's pool; drops copies when the pool is exhausted).
class Tee : public Element {
 public:
  explicit Tee(int n_outputs)
      : Element(1, n_outputs), lanes_(static_cast<size_t>(n_outputs)) {}
  const char* class_name() const override { return "Tee"; }
  void PushBatch(int port, PacketBatch& batch) override;

 private:
  std::vector<PacketBatch> lanes_;
};

// Stamps the paint annotation.
class Paint : public Element {
 public:
  explicit Paint(uint8_t color) : Element(1, 1), color_(color) {}
  const char* class_name() const override { return "Paint"; }
  void PushBatch(int port, PacketBatch& batch) override;

 private:
  uint8_t color_;
};

// Demuxes on the paint annotation: paint c exits output min(c, n-1).
class PaintSwitch : public Element {
 public:
  explicit PaintSwitch(int n_outputs)
      : Element(1, n_outputs), lanes_(static_cast<size_t>(n_outputs)) {}
  const char* class_name() const override { return "PaintSwitch"; }
  void PushBatch(int port, PacketBatch& batch) override;

 private:
  std::vector<PacketBatch> lanes_;
};

// Recomputes the flow-hash annotation from the 5-tuple (for paths where
// headers were rewritten after NIC RSS stamped the hash).
class SetFlowHash : public Element {
 public:
  SetFlowHash() : Element(1, 1) {}
  const char* class_name() const override { return "SetFlowHash"; }
  void PushBatch(int port, PacketBatch& batch) override;
};

// Applies a user function to each packet (glue for tests and experiments).
class ForEach : public Element {
 public:
  explicit ForEach(std::function<void(Packet*)> fn) : Element(1, 1), fn_(std::move(fn)) {}
  const char* class_name() const override { return "ForEach"; }
  void PushBatch(int /*port*/, PacketBatch& batch) override {
    for (Packet* p : batch) {
      fn_(p);
    }
    OutputBatch(0, batch);
  }

 private:
  std::function<void(Packet*)> fn_;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_MISC_HPP_
