// Classification elements.
//
// EtherClassifier: demuxes on EtherType — output 0: IPv4, output 1:
// everything else.
// IpProtoClassifier: demuxes IPv4 frames on the protocol field across a
// configurable list (e.g. {TCP, UDP, ESP}), last output = no match.
// HashSwitch: spreads packets across outputs by flow hash (the software
// analogue of RSS, useful for building scenario (c) of Fig 6 where one
// core splits traffic for others).
// RoundRobinSwitch: spreads packets across outputs in rotation.
//
// All four are batch-native: a burst is partitioned into per-output lanes
// in one virtual call, then each lane is forwarded as a batch.
#ifndef RB_CLICK_ELEMENTS_CLASSIFIER_HPP_
#define RB_CLICK_ELEMENTS_CLASSIFIER_HPP_

#include <vector>

#include "click/element.hpp"
#include "packet/headers.hpp"

namespace rb {

class EtherClassifier : public Element {
 public:
  EtherClassifier() : Element(1, 2) {}
  const char* class_name() const override { return "EtherClassifier"; }
  void PushBatch(int port, PacketBatch& batch) override;
  bool CompileMatch(program::MatchProgram* out) const override;
};

class IpProtoClassifier : public Element {
 public:
  // One output per protocol in `protos`, plus a final "no match" output.
  explicit IpProtoClassifier(std::vector<uint8_t> protos);
  const char* class_name() const override { return "IpProtoClassifier"; }
  void PushBatch(int port, PacketBatch& batch) override;
  bool CompileMatch(program::MatchProgram* out) const override;

 private:
  std::vector<uint8_t> protos_;
  std::vector<PacketBatch> lanes_;  // one-core-per-element scratch
};

class HashSwitch : public Element {
 public:
  explicit HashSwitch(int n_outputs)
      : Element(1, n_outputs), lanes_(static_cast<size_t>(n_outputs)) {}
  const char* class_name() const override { return "HashSwitch"; }
  void PushBatch(int port, PacketBatch& batch) override;

 private:
  std::vector<PacketBatch> lanes_;
};

class RoundRobinSwitch : public Element {
 public:
  explicit RoundRobinSwitch(int n_outputs)
      : Element(1, n_outputs), lanes_(static_cast<size_t>(n_outputs)) {}
  const char* class_name() const override { return "RoundRobinSwitch"; }
  void PushBatch(int port, PacketBatch& batch) override;

 private:
  int next_ = 0;
  std::vector<PacketBatch> lanes_;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_CLASSIFIER_HPP_
