#include "click/elements/classifier.hpp"

#include "program/match_program.hpp"

namespace rb {

void EtherClassifier::PushBatch(int /*port*/, PacketBatch& batch) {
  PacketBatch ipv4;
  PacketBatch other;
  for (Packet* p : batch) {
    if (p->length() >= EthernetView::kSize &&
        EthernetView{p->data()}.ether_type() == EthernetView::kTypeIpv4) {
      ipv4.PushBack(p);
    } else {
      other.PushBack(p);
    }
  }
  batch.Clear();
  OutputBatch(0, ipv4);
  OutputBatch(1, other);
}

bool EtherClassifier::CompileMatch(program::MatchProgram* out) const {
  using program::MatchInsn;
  using program::MatchProgram;
  out->set_n_outputs(2);
  // len >= 14 ? next : [1]
  out->AddInsn({MatchInsn::kLenGe, 0, 0, 0, EthernetView::kSize, 1, MatchProgram::Terminal(1)});
  // ether_type == IPv4 ? [0] : [1]  (bytes 12..13, low window bytes masked)
  out->AddInsn({MatchInsn::kMatch, 12, 14, 0xffff0000u,
                static_cast<uint32_t>(EthernetView::kTypeIpv4) << 16, MatchProgram::Terminal(0),
                MatchProgram::Terminal(1)});
  return true;
}

IpProtoClassifier::IpProtoClassifier(std::vector<uint8_t> protos)
    : Element(1, static_cast<int>(protos.size()) + 1),
      protos_(std::move(protos)),
      lanes_(protos_.size() + 1) {}

void IpProtoClassifier::PushBatch(int /*port*/, PacketBatch& batch) {
  const size_t no_match = protos_.size();
  for (Packet* p : batch) {
    size_t out = no_match;
    if (p->length() >= EthernetView::kSize + Ipv4View::kMinSize) {
      Ipv4View ip{p->data() + EthernetView::kSize};
      for (size_t i = 0; i < protos_.size(); ++i) {
        if (ip.protocol() == protos_[i]) {
          out = i;
          break;
        }
      }
    }
    lanes_[out].PushBack(p);
  }
  batch.Clear();
  for (int out = 0; out < n_outputs(); ++out) {
    OutputBatch(out, lanes_[static_cast<size_t>(out)]);
  }
}

bool IpProtoClassifier::CompileMatch(program::MatchProgram* out) const {
  using program::MatchInsn;
  using program::MatchProgram;
  const int no_match = static_cast<int>(protos_.size());
  out->set_n_outputs(no_match + 1);
  // len >= 34 ? scan protocols : [no_match]
  out->AddInsn({MatchInsn::kLenGe, 0, 0, 0, EthernetView::kSize + Ipv4View::kMinSize, 1,
                MatchProgram::Terminal(no_match)});
  // The protocol byte is frame offset 23 (eth 14 + ip 9): the low byte of
  // the 4-byte window at offset 20.
  for (size_t i = 0; i < protos_.size(); ++i) {
    const int16_t next = i + 1 < protos_.size() ? static_cast<int16_t>(i + 2)
                                                : MatchProgram::Terminal(no_match);
    out->AddInsn({MatchInsn::kMatch, 20, 24, 0x000000ffu, protos_[i],
                  MatchProgram::Terminal(static_cast<int>(i)), next});
  }
  return true;
}

void HashSwitch::PushBatch(int /*port*/, PacketBatch& batch) {
  for (Packet* p : batch) {
    lanes_[p->flow_hash() % static_cast<uint32_t>(n_outputs())].PushBack(p);
  }
  batch.Clear();
  for (int out = 0; out < n_outputs(); ++out) {
    OutputBatch(out, lanes_[static_cast<size_t>(out)]);
  }
}

void RoundRobinSwitch::PushBatch(int /*port*/, PacketBatch& batch) {
  for (Packet* p : batch) {
    lanes_[static_cast<size_t>(next_)].PushBack(p);
    next_ = (next_ + 1) % n_outputs();
  }
  batch.Clear();
  for (int out = 0; out < n_outputs(); ++out) {
    OutputBatch(out, lanes_[static_cast<size_t>(out)]);
  }
}

}  // namespace rb
