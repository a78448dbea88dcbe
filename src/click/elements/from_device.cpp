#include "click/elements/from_device.hpp"

#include "click/router.hpp"
#include "common/strings.hpp"
#include "telemetry/flight_recorder.hpp"

namespace rb {

FromDevice::FromDevice(NicPort* port, uint16_t rx_queue, uint16_t kp, int home_core,
                       uint16_t graph_batch)
    : Element(0, 1),
      driver_(port, rx_queue, DriverConfig{kp}),
      home_core_(home_core),
      graph_batch_(graph_batch) {}

void FromDevice::Initialize(Router* router) {
  // Cache the watermarked queues this poller can reach: only boundaries
  // that can actually block (PushHeadroom below SIZE_MAX) are kept, so
  // legacy tail-drop graphs pay nothing per poll.
  for (Element* b : router->DownstreamBlockers(this)) {
    if (b->PushHeadroom() != SIZE_MAX) {
      blockers_.push_back(b);
    }
  }
  router->RegisterTask(std::make_unique<PollTask>(this, home_core_));
}

void FromDevice::BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                               const std::string& prefix) {
  Element::BindTelemetry(registry, tracer, prefix);
  if (telemetry::Enabled() && registry != nullptr) {
    registry->AddCounterReader(prefix + "elem/" + name() + "/throttled_polls",
                               [this] { return throttled_polls(); });
  }
}

size_t FromDevice::PollAllowance() const {
  size_t allowance = SIZE_MAX;
  for (Element* b : blockers_) {
    size_t h = b->PushHeadroom();
    if (h < allowance) {
      allowance = h;
    }
  }
  return allowance;
}

void FromDevice::AddHandlers(telemetry::HandlerRegistry* handlers) {
  Element::AddHandlers(handlers);
  const std::string base = name() + ".";
  handlers->AddRead(base + "throttled_polls", [this] {
    return Format("%llu", static_cast<unsigned long long>(throttled_polls()));
  });
  handlers->AddRead(base + "kp",
                    [this] { return Format("%u", static_cast<unsigned>(driver_.config().kp)); });
}

size_t FromDevice::RunOnce() {
  size_t allowance = PollAllowance();
  const bool throttled = allowance < driver_.config().kp;
  if (throttled) {
    throttled_polls_.fetch_add(1, std::memory_order_relaxed);
    if (!throttled_state_) {
      // Edge, not level: one black-box event per throttle episode, even
      // when a blocked downstream holds the poller at zero for thousands
      // of consecutive polls.
      telemetry::FrRecord(telemetry::FrEvent::kThrottled, profile_scope(), allowance);
    }
  }
  throttled_state_ = throttled;
  if (throttled && allowance == 0) {
    return 0;
  }
  PacketBatch burst;
  size_t n = driver_.Poll(&burst, allowance);
  if (n == 0) {
    return 0;
  }
  if (tracer() != nullptr) {
    // Trace entry point: the sampling decision for each packet's path.
    // The interned scope keeps the unsampled majority allocation-free.
    const double now = telemetry::NowSeconds();
    const telemetry::ScopeId here = profile_scope();
    for (Packet* p : burst) {
      p->set_trace_handle(tracer()->StartTrace(here, now));
    }
  }
  if (graph_batch_ == 0 || burst.size() <= graph_batch_) {
    OutputBatch(0, burst);
  } else {
    // Graph-level batch cap: split the poll burst into graph_batch-sized
    // chunks (Table 1's third axis — batching inside the element graph,
    // independent of kp at the driver).
    PacketBatch chunk;
    while (!burst.empty()) {
      chunk.AppendUpTo(&burst, graph_batch_);
      OutputBatch(0, chunk);
    }
  }
  return n;
}

}  // namespace rb
