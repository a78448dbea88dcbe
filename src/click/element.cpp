#include "click/element.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"
#include "telemetry/flight_recorder.hpp"

namespace rb {

Element::Element(int n_inputs, int n_outputs)
    : inputs_(static_cast<size_t>(n_inputs)), outputs_(static_cast<size_t>(n_outputs)) {
  RB_CHECK(n_inputs >= 0 && n_outputs >= 0);
}

void Element::PushBatch(int /*port*/, PacketBatch& batch) { DropBatch(batch); }

size_t Element::PullBatch(int /*port*/, PacketBatch* /*out*/, int /*max*/) { return 0; }

void Element::Initialize(Router* /*router*/) {}

bool Element::CompileMatch(program::MatchProgram* /*out*/) const { return false; }

void Element::BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                            const std::string& prefix) {
  if (!telemetry::Enabled()) {
    return;
  }
  if (registry != nullptr) {
    tele_packets_ = registry->GetCounter(prefix + "elem/" + name_ + "/packets_out");
    registry->AddCounterReader(prefix + "elem/" + name_ + "/drops", [this] { return drops(); });
    tele_batch_ = registry->GetHistogram(
        prefix + "elem/" + name_ + "/batch_size",
        telemetry::HistogramOptions{0, static_cast<double>(PacketBatch::kCapacity), 64});
    tele_lat_drop_ = registry->GetLatencyHistogram(prefix + "lat/drop");
    ns_per_cycle_ = 1e9 / telemetry::CyclesPerSecond();
  }
  tracer_ = tracer;
}

void Element::AddHandlers(telemetry::HandlerRegistry* handlers) {
  RB_CHECK(handlers != nullptr);
  const std::string base = name_ + ".";
  handlers->AddRead(base + "config", [this] {
    return Format("class %s in %d out %d", class_name(), n_inputs(), n_outputs());
  });
  handlers->AddRead(base + "counts", [this] {
    // Packets out is only counted when telemetry is bound (the hot path
    // pays nothing otherwise); unbound reads report 0.
    const uint64_t v = tele_packets_ != nullptr ? tele_packets_->Value() : 0;
    return Format("%llu", static_cast<unsigned long long>(v));
  });
  handlers->AddRead(base + "drops", [this] {
    return Format("%llu", static_cast<unsigned long long>(drops()));
  });
  handlers->AddRead(base + "batch_size", [this] {
    if (tele_batch_ == nullptr) {
      return std::string("count=0");
    }
    telemetry::HistogramSnapshot s = tele_batch_->Snapshot();
    return Format("count=%llu mean=%.2f p50=%.1f p95=%.1f",
                  static_cast<unsigned long long>(s.count), s.mean(), s.Percentile(50),
                  s.Percentile(95));
  });
}

void Element::OutputBatch(int port, PacketBatch& batch) {
  if (batch.empty()) {
    return;
  }
  RB_CHECK(port >= 0 && port < n_outputs());
  PortRef& ref = outputs_[static_cast<size_t>(port)];
  if (!ref.connected()) {
    DropBatch(batch);
    return;
  }
  const uint32_t n = batch.size();
  if (tele_packets_ != nullptr) {
    tele_packets_->Add(n);
  }
  if (ref.element->tele_batch_ != nullptr) {
    // Attributed to the receiver: "elem/<name>/batch_size" is the
    // distribution of burst sizes each element sees arrive.
    ref.element->tele_batch_->Observe(static_cast<double>(n));
  }
  if (tracer_ != nullptr) {
    // Hops stay per-packet: each sampled path records its own handoff even
    // though the batch moves in one call.
    const double now = telemetry::NowSeconds();
    const telemetry::ScopeId to = ref.element->profile_scope();
    for (Packet* p : batch) {
      if (p->trace_handle() != 0) {
        tracer_->Record(p->trace_handle(), to, now);
      }
    }
  }
  // One profiler scope entry covers the whole burst — the per-batch
  // amortization the refactor exists for.
  RB_PROF_SCOPE(ref.element->profile_scope());
  RB_PROF_WORK(n, batch.TotalBytes());
  ref.element->PushBatch(ref.port, batch);
}

void Element::DropBatch(PacketBatch& batch) {
  const uint32_t n = batch.size();
  if (n == 0) {
    return;
  }
  drops_.fetch_add(n, std::memory_order_relaxed);
  telemetry::FrRecord(telemetry::FrEvent::kDrop, prof_scope_, n);
  if (tele_lat_drop_ != nullptr) {
    const uint64_t now_cycles = telemetry::ReadCycles();  // once per batch
    for (Packet* p : batch) {
      if (p->ingress_cycles() != 0) {
        uint64_t dc = now_cycles - p->ingress_cycles();
        tele_lat_drop_->ObserveNs(
            static_cast<uint64_t>(static_cast<double>(dc) * ns_per_cycle_));
      }
    }
  }
  if (tracer_ != nullptr) {
    const double now = telemetry::NowSeconds();
    for (Packet* p : batch) {
      if (p->trace_handle() != 0) {
        tracer_->Abandon(p->trace_handle(), drop_scope_, now);
      }
    }
  }
  batch.ReleaseAll();
}

size_t Element::InputBatch(int port, PacketBatch* out, int max) {
  RB_CHECK(port >= 0 && port < n_inputs());
  PortRef& ref = inputs_[static_cast<size_t>(port)];
  if (!ref.connected()) {
    return 0;
  }
  // Pull-side cycles are charged to the upstream element being drained
  // (packets are counted on the push side only, to avoid double counting).
  RB_PROF_SCOPE(ref.element->profile_scope());
  return ref.element->PullBatch(ref.port, out, max);
}

}  // namespace rb
