#include "click/elements/to_device.hpp"

#include "click/router.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"

namespace rb {

ToDevice::ToDevice(NicPort* port, uint16_t tx_queue, uint16_t burst, int home_core)
    : Element(1, 0), port_(port), tx_queue_(tx_queue), burst_(burst), home_core_(home_core) {
  RB_CHECK(port != nullptr);
  RB_CHECK(burst >= 1);
  RB_CHECK(tx_queue < port->num_tx_queues());
}

void ToDevice::Initialize(Router* router) {
  if (router->PullsFromQueue(this)) {
    router->RegisterTask(std::make_unique<DrainTask>(this, home_core_));
  }
}

void ToDevice::BindTelemetry(telemetry::MetricRegistry* registry,
                             telemetry::PathTracer* tracer, const std::string& prefix) {
  Element::BindTelemetry(registry, tracer, prefix);
  if (telemetry::Enabled() && registry != nullptr) {
    // Keyed by egress port when labeled (one distribution per port, as the
    // paper's per-port latency story wants), else by element name.
    const std::string key = port_label_ >= 0 ? Format("lat/port%d", port_label_)
                                             : "lat/" + name();
    tele_lat_ = registry->GetLatencyHistogram(prefix + key);
    ns_per_cycle_q32_ = static_cast<uint64_t>(
        (1e9 / telemetry::CyclesPerSecond()) * 4294967296.0);  // Q32.32
  }
}

void ToDevice::AddHandlers(telemetry::HandlerRegistry* handlers) {
  Element::AddHandlers(handlers);
  handlers->AddRead(name() + ".latency", [this] {
    if (tele_lat_ == nullptr) {
      return std::string("count=0");
    }
    telemetry::LatencySnapshot s = tele_lat_->Snapshot();
    return Format("count=%llu p50_us=%.2f p90_us=%.2f p99_us=%.2f p999_us=%.2f",
                  static_cast<unsigned long long>(s.count), s.PercentileNs(50) / 1e3,
                  s.PercentileNs(90) / 1e3, s.PercentileNs(99) / 1e3,
                  s.PercentileNs(99.9) / 1e3);
  });
}

void ToDevice::ObserveLatency(telemetry::LatencyHistogram* hist, Packet* const* pkts, size_t n,
                              uint64_t now_cycles, uint64_t ns_per_cycle_q32) {
  telemetry::LatencyHistogram::Shard& shard = hist->ThisShard();
  uint64_t stamp = 0;  // the current run's stamp; 0: unstamped, not observed
  uint64_t run = 0;
  auto flush = [&] {
    if (stamp != 0) {
      telemetry::LatencyHistogram::ObserveNs(
          shard,
          static_cast<uint64_t>((static_cast<__uint128_t>(now_cycles - stamp) *
                                 ns_per_cycle_q32) >> 32),
          run);
    }
  };
  for (size_t i = 0; i < n; ++i) {
    const uint64_t s = pkts[i]->ingress_cycles();
    if (s != stamp) {
      flush();
      stamp = s;
      run = 0;
    }
    run++;
  }
  flush();
}

void ToDevice::TransmitBatch(PacketBatch& batch) {
  if (tele_lat_ != nullptr) {
    // Egress readout of the ingress stamp: one cycle read per burst.
    ObserveLatency(tele_lat_, batch.begin(), batch.size(), telemetry::ReadCycles(),
                   ns_per_cycle_q32_);
  }
  if (tracer() != nullptr) {
    const double now = telemetry::NowSeconds();
    const telemetry::ScopeId here = profile_scope();
    for (Packet* p : batch) {
      if (p->trace_handle() != 0) {
        tracer()->EndTrace(p->trace_handle(), here, now);
        p->set_trace_handle(0);
      }
    }
  }
  NicPort::RingBurst sent;
  {
#if defined(RB_PROFILE) && RB_PROFILE
    // The tx half of the driver batch loop (rx is netdev/rx_poll) — one
    // scope entry per transmit burst.
    static const telemetry::ScopeId kTxScope = telemetry::InternScopeName("netdev/tx");
    RB_PROF_SCOPE(kTxScope);
#endif
    // Transmit() owns every packet either way; those its ring has no room
    // for are counted as tx drops by the NIC.
    sent = port_->Transmit(tx_queue_, batch.begin(), batch.size());
    RB_PROF_WORK(sent.packets, sent.bytes);
  }
  CountPacketsOut(sent.packets);
  batch.Clear();
}

void ToDevice::PushBatch(int /*port*/, PacketBatch& batch) { TransmitBatch(batch); }

size_t ToDevice::RunOnce() {
  PacketBatch batch;
  size_t moved = InputBatch(0, &batch, burst_);
  if (moved == 0) {
    return 0;
  }
  TransmitBatch(batch);
  return moved;
}

}  // namespace rb
