// The element graph: owns elements, wires ports, validates the
// configuration, and collects the tasks elements register.
#ifndef RB_CLICK_ROUTER_HPP_
#define RB_CLICK_ROUTER_HPP_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "click/element.hpp"
#include "click/task.hpp"

namespace rb {

class Router {
 public:
  Router() = default;

  // Constructs an element in place, returns a borrowed pointer (the router
  // owns it). Usage: auto* q = router.Add<QueueElement>(1024);
  template <typename T, typename... Args>
  T* Add(Args&&... args) {
    auto elem = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = elem.get();
    raw->set_name(Format_("%s@%zu", raw->class_name(), elements_.size()));
    elements_.push_back(std::move(elem));
    return raw;
  }

  // Connects `from`'s output port to `to`'s input port. A port can be
  // wired at most once (Click's single-wire rule).
  void Connect(Element* from, int out_port, Element* to, int in_port);

  // True if the connection would be legal (ports in range and unwired).
  // Used by the config parser to report errors instead of aborting.
  bool CanConnect(Element* from, int out_port, Element* to, int in_port) const;

  // Convenience: connect port 0 -> port 0 along a chain.
  void Chain(std::initializer_list<Element*> elements);

  // Binds every element (and every task registered from now on) to the
  // registry/tracer. Call after the graph is built and before
  // Initialize(), so tasks registered during element initialization are
  // covered. Metric names: "<prefix>elem/<name>/..." and
  // "<prefix>task/<element-name>/...". No-op when telemetry is disabled.
  void BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                     const std::string& prefix = "");

  telemetry::MetricRegistry* telemetry_registry() const { return tele_registry_; }
  telemetry::PathTracer* tracer() const { return tele_tracer_; }

  // Registers every element's handlers plus router-level reads
  // (`router.elements`, `router.tasks`) with the control-plane registry
  // (DESIGN.md §13). Call after the graph is built; the router and its
  // elements must outlive `handlers`.
  void AddHandlers(telemetry::HandlerRegistry* handlers);

  // Registers a task (called by elements during Initialize).
  void RegisterTask(std::unique_ptr<Task> task);

  // Compiled-packet-programs pass (DESIGN.md §16): finds maximal chains of
  // adjacent classification elements that expose a MatchProgram through
  // Element::CompileMatch (EtherClassifier, IpProtoClassifier,
  // CheckIPHeader, ...), merges their programs into one flat instruction
  // array, and replaces each chain with a single CompiledClassifier wired
  // to the chain's original entry and exit edges. Exit lanes are ordered
  // by the interpreted chain's depth-first output order, so downstream
  // elements receive packets in exactly the interpreted sequence. The
  // collapsed originals stay owned by the router but are detached from the
  // graph. Call after the graph is built, before BindTelemetry/Initialize.
  // Returns the number of CompiledClassifier elements created.
  int CompilePrograms();

  // Validates wiring (port indices sane, no double wiring — enforced at
  // Connect time — and the pull-path rule below) and calls Initialize on
  // every element in insertion order. Must be called exactly once before
  // running.
  void Initialize();

  // The pull-path rule (Click's push/pull agreement, checked when the
  // graph is configured): every element wired downstream of a Queue's
  // output, up to and including the one that drains it, must pull its
  // input (Element::pulls_input) through a single wire. Anything else
  // would be skipped by the pull or left holding packets nobody pulls.
  // Returns "" when the graph obeys the rule, else an error naming the
  // first element that breaks it. Initialize aborts on an error;
  // ParseClickConfig reports it.
  std::string PullPathError() const;

  // Runs every task once, in registration order; returns packets moved.
  // This is the deterministic single-threaded driver used by tests and by
  // experiments where thread interleaving must not affect results.
  size_t RunTasksOnce();

  // Runs tasks until an entire sweep moves no packets, or `max_sweeps` is
  // reached. Returns total packets moved.
  size_t RunUntilIdle(size_t max_sweeps = 1'000'000);

  // Backpressure discovery: every push-to-pull boundary element (queue)
  // reachable from `root` by following push edges, stopping at each
  // boundary (what lies beyond it is the pull side, another core's
  // problem). Pollers call this once at Initialize time and consult the
  // cached boundaries' PushHeadroom() per poll.
  std::vector<Element*> DownstreamBlockers(Element* root) const;

  // Pull-path discovery, the mirror of DownstreamBlockers: true when
  // `sink`'s input 0 is fed by a boundary element (queue), directly or
  // through elements that forward pulls (PullPathError admits no other);
  // false when `sink` is fed by push.
  bool PullsFromQueue(const Element* sink) const;

  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }
  const std::vector<std::unique_ptr<Element>>& elements() const { return elements_; }
  bool initialized() const { return initialized_; }

 private:
  static std::string Format_(const char* fmt, const char* a, size_t b);
  void BindTask_(Task* task);

  std::vector<std::unique_ptr<Element>> elements_;
  std::vector<std::unique_ptr<Task>> tasks_;
  bool initialized_ = false;

  telemetry::MetricRegistry* tele_registry_ = nullptr;
  telemetry::PathTracer* tele_tracer_ = nullptr;
  std::string tele_prefix_;
};

}  // namespace rb

#endif  // RB_CLICK_ROUTER_HPP_
