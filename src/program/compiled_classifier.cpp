#include "program/compiled_classifier.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"

namespace rb {

CompiledClassifier::CompiledClassifier(program::MatchProgram prog, int n_element_outputs,
                                       std::string collapsed)
    : Element(1, n_element_outputs),
      prog_(std::move(prog)),
      collapsed_(std::move(collapsed)),
      lanes_(static_cast<size_t>(prog_.n_outputs())),
      matches_(static_cast<size_t>(prog_.n_outputs())) {
  RB_CHECK_MSG(prog_.n_outputs() >= n_element_outputs,
               "program must cover every element output");
  std::string err;
  RB_CHECK_MSG(prog_.Validate(&err), "invalid match program");
}

namespace {

// One instruction evaluated outside the interpreter loop. The kMatch
// window test folds the program-wide safe_length gate: for a single-insn
// program safe_length == extent, so `length >= extent` is exactly
// Execute's fast/checked split.
inline bool EvalInsn(const program::MatchInsn& in, const uint8_t* data, uint32_t length) {
  using program::MatchInsn;
  switch (in.op) {
    case MatchInsn::kLenGe:
      return length >= in.value;
    case MatchInsn::kMatch:
      return length >= in.extent && (LoadBe32(data + in.offset) & in.mask) == in.value;
    case MatchInsn::kIpHeaderOk:
      return program::detail::IpHeaderOkAt(data, length, in.offset);
    case MatchInsn::kEtherIpv4Ok:
    default:
      return program::detail::EtherIpv4OkAt(data, length, in.offset);
  }
}

}  // namespace

void CompiledClassifier::EmitLane(int lane, PacketBatch& b) {
  matches_[static_cast<size_t>(lane)].fetch_add(b.size(), std::memory_order_relaxed);
  if (lane < n_outputs()) {
    OutputBatch(lane, b);
  } else {
    DropBatch(b);  // lanes past the element's ports (pattern no-match)
  }
}

void CompiledClassifier::PushBatch(int /*port*/, PacketBatch& batch) {
  const uint32_t n = batch.size();
  if (prog_.size() == 1) {
    // Single-insn programs — the fused CheckIPHeader, i.e. every chain the
    // production graphs compile — skip the interpreter: the insn sits in
    // registers and packets split into two local lanes, the exact loop
    // shape of the interpreted element this replaces. The generic path
    // below measures ~5 cycles/packet slower on this case (insn load +
    // dispatch + indexed lane store per packet).
    const program::MatchInsn in = prog_.insn(0);
    const int yes_lane = program::MatchProgram::TerminalOutput(in.yes);
    const int no_lane = program::MatchProgram::TerminalOutput(in.no);
    if (yes_lane == no_lane) {
      EmitLane(yes_lane, batch);  // degenerate: nothing to classify
      return;
    }
    PacketBatch yes_b;
    PacketBatch no_b;
    for (uint32_t i = 0; i < n; ++i) {
      if (i + 1 < n) {
        // The program reads the first cache lines of the frame; pull the
        // next packet's while this one classifies.
        PrefetchPacketHeaders(batch[i + 1]);
      }
      Packet* p = batch[i];
      (EvalInsn(in, p->data(), p->length()) ? yes_b : no_b).PushBack(p);
    }
    batch.Clear();
    // Ascending lane order, matching the generic emission loop.
    if (yes_lane < no_lane) {
      EmitLane(yes_lane, yes_b);
      EmitLane(no_lane, no_b);
    } else {
      EmitLane(no_lane, no_b);
      EmitLane(yes_lane, yes_b);
    }
    return;
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (i + 1 < n) {
      PrefetchPacketHeaders(batch[i + 1]);
    }
    Packet* p = batch[i];
    const int lane = prog_.Execute(p->data(), p->length());
    lanes_[static_cast<size_t>(lane)].PushBack(p);
  }
  batch.Clear();
  for (int lane = 0; lane < prog_.n_outputs(); ++lane) {
    EmitLane(lane, lanes_[static_cast<size_t>(lane)]);
  }
}

void CompiledClassifier::AddHandlers(telemetry::HandlerRegistry* handlers) {
  Element::AddHandlers(handlers);
  handlers->AddRead(name() + ".program", [this] {
    std::string out;
    if (!collapsed_.empty()) {
      out += Format("collapsed %s\n", collapsed_.c_str());
    }
    out += prog_.Listing();
    for (size_t lane = 0; lane < matches_.size(); ++lane) {
      out += Format("  [%zu] matched %llu%s\n", lane,
                    static_cast<unsigned long long>(matches(static_cast<int>(lane))),
                    static_cast<int>(lane) >= n_outputs() ? " (drop)" : "");
    }
    return out;
  });
}

}  // namespace rb
