// CompiledClassifier: a batch element that executes a MatchProgram over a
// whole burst and partitions it into per-output lanes — the runtime half
// of the compiled-packet-program layer (DESIGN.md §16).
//
// One element can stand in for a whole chain of interpreted classification
// elements (EtherClassifier -> IpProtoClassifier, CheckIPHeader, ...):
// Router::CompilePrograms builds the merged program and rewires the graph
// so upstream pushes land here and each program output lane forwards to
// the original chain's exit edge. Lane emission order is the interpreted
// chain's depth-first output order, so downstream elements see packets in
// exactly the sequence the interpreted graph would deliver.
//
// The element may also carry more program lanes than it has output ports
// (pattern-compiled classifiers put "no match" on the extra final lane);
// packets landing on a lane >= n_outputs() are dropped and counted.
#ifndef RB_PROGRAM_COMPILED_CLASSIFIER_HPP_
#define RB_PROGRAM_COMPILED_CLASSIFIER_HPP_

#include <string>
#include <vector>

#include "click/element.hpp"
#include "program/match_program.hpp"

namespace rb {

class CompiledClassifier : public Element {
 public:
  // `collapsed` names the interpreted elements this one replaces (shown in
  // the config handler and rb_top); empty for a directly-configured
  // classifier. The program must already Validate().
  CompiledClassifier(program::MatchProgram prog, int n_element_outputs,
                     std::string collapsed = "");

  const char* class_name() const override { return "CompiledClassifier"; }
  void PushBatch(int port, PacketBatch& batch) override;
  void AddHandlers(telemetry::HandlerRegistry* handlers) override;

  const program::MatchProgram& prog() const { return prog_; }
  const std::string& collapsed() const { return collapsed_; }
  uint64_t matches(int lane) const {
    return matches_[static_cast<size_t>(lane)].load(std::memory_order_relaxed);
  }

 private:
  // Counts the lane's matches and forwards (or drops, for lanes past the
  // element's ports) one partitioned batch.
  void EmitLane(int lane, PacketBatch& b);

  program::MatchProgram prog_;
  std::string collapsed_;
  std::vector<PacketBatch> lanes_;  // one-core-per-element scratch
  // Per-lane match counters: bumped once per batch by the owning core,
  // read live by the `.program` handler on the control thread.
  std::vector<std::atomic<uint64_t>> matches_;
};

}  // namespace rb

#endif  // RB_PROGRAM_COMPILED_CLASSIFIER_HPP_
