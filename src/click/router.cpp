#include "click/router.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "program/compiled_classifier.hpp"
#include "program/match_program.hpp"

namespace rb {

std::string Router::Format_(const char* fmt, const char* a, size_t b) {
  return Format(fmt, a, b);
}

void Router::Connect(Element* from, int out_port, Element* to, int in_port) {
  RB_CHECK(!initialized_);
  RB_CHECK(from != nullptr && to != nullptr);
  RB_CHECK_MSG(out_port >= 0 && out_port < from->n_outputs(), "output port out of range");
  RB_CHECK_MSG(in_port >= 0 && in_port < to->n_inputs(), "input port out of range");
  auto& out_ref = from->outputs_[static_cast<size_t>(out_port)];
  auto& in_ref = to->inputs_[static_cast<size_t>(in_port)];
  RB_CHECK_MSG(!out_ref.connected(), "output port already wired");
  out_ref = {to, in_port};
  // Push inputs may fan in (multiple upstream elements pushing into the
  // same port, as in Click). The input back-reference records the first
  // upstream only; it is what InputBatch() pulls from, so a pull input
  // must have exactly one wire (PullPathError checks it).
  if (!in_ref.connected()) {
    in_ref = {from, out_port};
  }
}

bool Router::CanConnect(Element* from, int out_port, Element* to, int in_port) const {
  if (initialized_ || from == nullptr || to == nullptr) {
    return false;
  }
  if (out_port < 0 || out_port >= from->n_outputs() || in_port < 0 ||
      in_port >= to->n_inputs()) {
    return false;
  }
  return !from->outputs_[static_cast<size_t>(out_port)].connected();
}

void Router::Chain(std::initializer_list<Element*> elements) {
  Element* prev = nullptr;
  for (Element* e : elements) {
    if (prev != nullptr) {
      Connect(prev, 0, e, 0);
    }
    prev = e;
  }
}

void Router::BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                           const std::string& prefix) {
  if (!telemetry::Enabled()) {
    return;
  }
  tele_registry_ = registry;
  tele_tracer_ = tracer;
  tele_prefix_ = prefix;
  for (auto& e : elements_) {
    e->BindTelemetry(registry, tracer, prefix);
  }
  for (auto& t : tasks_) {
    BindTask_(t.get());
  }
}

void Router::AddHandlers(telemetry::HandlerRegistry* handlers) {
  RB_CHECK(handlers != nullptr);
  for (auto& e : elements_) {
    e->AddHandlers(handlers);
  }
  handlers->AddRead("router.elements", [this] {
    std::string out;
    for (const auto& e : elements_) {
      out += Format("%s %s\n", e->name().c_str(), e->class_name());
    }
    return out;
  });
  handlers->AddRead("router.tasks", [this] {
    std::string out;
    for (const auto& t : tasks_) {
      out += Format("%s home_core=%d progress=%llu\n",
                    t->element() != nullptr ? t->element()->name().c_str() : "-", t->home_core(),
                    static_cast<unsigned long long>(t->progress()));
    }
    return out;
  });
}

void Router::BindTask_(Task* task) {
  if (tele_registry_ == nullptr || task->element() == nullptr) {
    return;
  }
  task->BindTelemetry(tele_registry_, tele_prefix_ + "task/" + task->element()->name());
}

void Router::RegisterTask(std::unique_ptr<Task> task) {
  BindTask_(task.get());
  tasks_.push_back(std::move(task));
}

std::vector<Element*> Router::DownstreamBlockers(Element* root) const {
  RB_CHECK(root != nullptr);
  std::vector<Element*> boundaries;
  std::vector<Element*> frontier{root};
  std::vector<Element*> visited;
  while (!frontier.empty()) {
    Element* e = frontier.back();
    frontier.pop_back();
    if (std::find(visited.begin(), visited.end(), e) != visited.end()) {
      continue;
    }
    visited.push_back(e);
    for (const auto& ref : e->outputs_) {
      if (!ref.connected()) {
        continue;
      }
      Element* next = ref.element;
      if (next->backpressure_boundary()) {
        if (std::find(boundaries.begin(), boundaries.end(), next) == boundaries.end()) {
          boundaries.push_back(next);
        }
        continue;  // beyond the boundary is the pull side
      }
      frontier.push_back(next);
    }
  }
  return boundaries;
}

bool Router::PullsFromQueue(const Element* sink) const {
  const Element* e = sink;
  // Bounded by the element count, so a wiring cycle cannot spin forever.
  for (size_t hops = 0; hops < elements_.size() && e->n_inputs() > 0; ++hops) {
    e = e->inputs_[0].element;
    if (e == nullptr || e->backpressure_boundary()) {
      return e != nullptr;
    }
  }
  return false;
}

std::string Router::PullPathError() const {
  for (const auto& owned : elements_) {
    const Element* queue = owned.get();
    if (!queue->backpressure_boundary()) {
      continue;
    }
    // Walk the queue's pull side. Every element it reaches must pull its
    // input, through the one wire that input has; each one's outputs are
    // pulled in turn. Visited elements are not walked twice, so a wiring
    // cycle ends the walk.
    std::vector<const Element*> frontier{queue};
    std::vector<const Element*> visited;
    while (!frontier.empty()) {
      const Element* from = frontier.back();
      frontier.pop_back();
      if (std::find(visited.begin(), visited.end(), from) != visited.end()) {
        continue;
      }
      visited.push_back(from);
      for (size_t out = 0; out < from->outputs_.size(); ++out) {
        const auto& ref = from->outputs_[out];
        if (!ref.connected()) {
          continue;  // drained by hand (tests) or not at all
        }
        const Element* to = ref.element;
        if (!to->pulls_input()) {
          return Format("'%s' (%s) is on the pull path of queue '%s' but does not pull its input",
                        to->name().c_str(), to->class_name(), queue->name().c_str());
        }
        const auto& back = to->inputs_[static_cast<size_t>(ref.port)];
        if (back.element != from || back.port != static_cast<int>(out)) {
          return Format("'%s' (%s) input %d is on the pull path of queue '%s' and has more "
                        "than one wire",
                        to->name().c_str(), to->class_name(), ref.port, queue->name().c_str());
        }
        frontier.push_back(to);
      }
    }
  }
  return "";
}

int Router::CompilePrograms() {
  RB_CHECK_MSG(!initialized_, "CompilePrograms must precede Initialize");

  // Compile every candidate once; fan-in counts decide which elements may
  // be absorbed mid-chain (a continuation must have exactly one upstream,
  // or other pushers would bypass the merged program).
  std::map<Element*, program::MatchProgram> programs;
  std::map<Element*, int> fan_in;
  std::vector<Element*> originals;
  for (auto& e : elements_) {
    originals.push_back(e.get());
    for (const auto& ref : e->outputs_) {
      if (ref.connected()) {
        fan_in[ref.element]++;
      }
    }
  }
  for (Element* e : originals) {
    program::MatchProgram prog;
    if (e->n_inputs() == 1 && e->CompileMatch(&prog)) {
      std::string err;
      RB_CHECK_MSG(prog.Validate(&err), "element produced an invalid match program");
      programs.emplace(e, std::move(prog));
    }
  }

  // continuation[e] = the output port whose target extends e's chain: the
  // first output leading to a compilable, single-input, fan-in-1 element.
  // Other outputs become exit lanes of the collapsed element.
  std::map<Element*, int> continuation;
  std::set<Element*> is_continuation;
  for (auto& [e, prog] : programs) {
    for (int o = 0; o < e->n_outputs(); ++o) {
      const auto& ref = e->outputs_[static_cast<size_t>(o)];
      if (ref.connected() && ref.element != e && programs.count(ref.element) != 0 &&
          ref.port == 0 && fan_in[ref.element] == 1 &&
          is_continuation.count(ref.element) == 0) {
        continuation[e] = o;
        is_continuation.insert(ref.element);
        break;
      }
    }
  }

  int collapsed = 0;
  for (Element* head : originals) {
    if (programs.count(head) == 0 || is_continuation.count(head) != 0) {
      continue;
    }
    // Follow continuation links to the full chain.
    std::vector<Element*> chain{head};
    std::vector<int> cont_out;
    while (continuation.count(chain.back()) != 0) {
      int o = continuation[chain.back()];
      cont_out.push_back(o);
      chain.push_back(chain.back()->outputs_[static_cast<size_t>(o)].element);
    }

    // Exit lanes in the interpreted chain's depth-first output order: each
    // element emits OutputBatch(0..n-1) in order, recursing through the
    // continuation edge, so pre-order traversal reproduces the exact
    // per-sink packet sequence.
    std::vector<std::pair<Element*, int>> exits;
    std::map<Element*, std::vector<int16_t>> lane_of;  // per element: output -> lane
    auto visit = [&](auto&& self, size_t i) -> void {
      Element* e = chain[i];
      auto& lanes = lane_of[e];
      lanes.assign(static_cast<size_t>(e->n_outputs()), 0);
      for (int o = 0; o < e->n_outputs(); ++o) {
        if (i < cont_out.size() && o == cont_out[i]) {
          self(self, i + 1);
          continue;
        }
        lanes[static_cast<size_t>(o)] =
            program::MatchProgram::Terminal(static_cast<int>(exits.size()));
        exits.emplace_back(e, o);
      }
    };
    visit(visit, 0);

    // Merge programs front to back. Entry offsets are prefix sums of the
    // per-element sizes, so a continuation terminal can be rewritten into
    // a forward jump to the next element's entry before it is appended.
    std::vector<int> base(chain.size());
    for (size_t i = 1; i < chain.size(); ++i) {
      base[i] = base[i - 1] + static_cast<int>(programs[chain[i - 1]].size());
    }
    program::MatchProgram merged;
    merged.set_n_outputs(static_cast<int>(exits.size()));
    std::string collapsed_names;
    for (size_t i = 0; i < chain.size(); ++i) {
      Element* e = chain[i];
      std::vector<int16_t> map_terminal = lane_of[e];
      if (i < cont_out.size()) {
        map_terminal[static_cast<size_t>(cont_out[i])] = static_cast<int16_t>(base[i + 1]);
      }
      merged.AppendRebased(programs[e], map_terminal);
      if (!collapsed_names.empty()) {
        collapsed_names += "+";
      }
      collapsed_names += e->name();
    }
    std::string err;
    RB_CHECK_MSG(merged.Validate(&err), "merged match program invalid");
    // Superinstruction peephole: a chain that is (or ends in) a plain
    // CheckIPHeader runs as one fused dispatch instead of three.
    merged.Fuse();

    auto* cc =
        Add<CompiledClassifier>(std::move(merged), static_cast<int>(exits.size()), collapsed_names);

    // Rewire: every push edge into the chain head now lands on the
    // compiled element, and each exit lane adopts the original exit edge.
    // Scan all elements, not just the originals: an earlier collapse may
    // have left a CompiledClassifier exit lane pointing at this head.
    for (auto& owned : elements_) {
      Element* e = owned.get();
      for (auto& ref : e->outputs_) {
        if (ref.element == head && ref.port == 0) {
          ref = {cc, 0};
        }
      }
    }
    cc->inputs_[0] = head->inputs_[0];
    for (size_t lane = 0; lane < exits.size(); ++lane) {
      auto [from, port] = exits[lane];
      const auto target = from->outputs_[static_cast<size_t>(port)];
      cc->outputs_[lane] = target;
      if (target.connected() &&
          target.element->inputs_[static_cast<size_t>(target.port)].element == from) {
        target.element->inputs_[static_cast<size_t>(target.port)] = {cc,
                                                                     static_cast<int>(lane)};
      }
    }
    // Detach the absorbed originals: they stay owned (handlers keep
    // working, counters read 0) but carry no graph edges.
    for (Element* e : chain) {
      for (auto& ref : e->outputs_) {
        ref = {};
      }
      for (auto& ref : e->inputs_) {
        ref = {};
      }
    }
    collapsed++;
  }
  return collapsed;
}

void Router::Initialize() {
  RB_CHECK_MSG(!initialized_, "Router::Initialize called twice");
  const std::string pull_error = PullPathError();
  RB_CHECK_MSG(pull_error.empty(), pull_error.c_str());
  initialized_ = true;
  for (auto& e : elements_) {
    e->Initialize(this);
  }
}

size_t Router::RunTasksOnce() {
  RB_CHECK_MSG(initialized_, "Router not initialized");
  size_t moved = 0;
  for (auto& t : tasks_) {
    moved += t->RunOnce();
  }
  return moved;
}

size_t Router::RunUntilIdle(size_t max_sweeps) {
  size_t total = 0;
  for (size_t i = 0; i < max_sweeps; ++i) {
    size_t moved = RunTasksOnce();
    total += moved;
    if (moved == 0) {
      break;
    }
  }
  return total;
}

}  // namespace rb
