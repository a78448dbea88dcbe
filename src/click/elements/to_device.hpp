// ToDevice: transmits into one NIC tx queue. Like FromDevice, it binds to
// a queue so that the "one core per queue" rule holds on the transmit side
// too; a full tx ring drops into tx_counters().drops.
//
// The wiring picks the mode at Initialize: fed by a Queue
// (Router::PullsFromQueue), a drain task pulls up to `burst` packets per
// iteration in one PullBatch call; otherwise upstream chains push batches
// in and each is transmitted on the pushing core (run to completion), so
// they must all run on one core.
#ifndef RB_CLICK_ELEMENTS_TO_DEVICE_HPP_
#define RB_CLICK_ELEMENTS_TO_DEVICE_HPP_

#include <memory>

#include "click/element.hpp"
#include "click/task.hpp"
#include "netdev/nic.hpp"

namespace rb {

class ToDevice : public Element {
 public:
  ToDevice(NicPort* port, uint16_t tx_queue, uint16_t burst = 32, int home_core = -1);

  const char* class_name() const override { return "ToDevice"; }
  void Initialize(Router* router) override;

  // Push mode: a pushed batch is transmitted immediately.
  void PushBatch(int port, PacketBatch& batch) override;

  // Pull mode: the drain task pulls input 0, so ToDevice may end a pull
  // path.
  bool pulls_input() const override { return true; }

  // One pull-mode drain iteration: pulls up to `burst` packets from input
  // 0 and transmits them. Returns packets moved.
  size_t RunOnce();

  NicPort* port() const { return port_; }
  uint16_t tx_queue() const { return tx_queue_; }

  // Latency-plane keying: stamped packets transmitted here are observed
  // into "lat/port<label>" (or "lat/<name>" when unset). Set before
  // BindTelemetry; SingleServerRouter labels each ToDevice with its
  // output port.
  void set_port_label(int label) { port_label_ = label; }

  // Binds the base element metrics plus the egress latency histogram.
  void BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                     const std::string& prefix = "") override;

  // Adds "<name>.latency": live ingress-to-egress percentile readout.
  void AddHandlers(telemetry::HandlerRegistry* handlers) override;

  // The egress readout: observes `now_cycles` minus the ingress stamp of
  // each stamped packet in pkts[0, n) into `hist`, converted to ns with
  // the Q32.32 multiplier. Frames delivered in one burst share a stamp,
  // so the shard is looked up once per burst, and each run of equal
  // stamps costs one multiply and one bucket add.
  static void ObserveLatency(telemetry::LatencyHistogram* hist, Packet* const* pkts, size_t n,
                             uint64_t now_cycles, uint64_t ns_per_cycle_q32);

 private:
  // Transmits `batch` with one NicPort::Transmit burst (which owns each
  // packet either way; failures are counted as tx drops by the NIC).
  // Empties the batch.
  void TransmitBatch(PacketBatch& batch);

  class DrainTask : public Task {
   public:
    DrainTask(ToDevice* td, int home_core) : Task(td, home_core), td_(td) {}
    size_t Run() override { return td_->RunOnce(); }

   private:
    ToDevice* td_;
  };

  NicPort* port_;
  uint16_t tx_queue_;
  uint16_t burst_;
  int home_core_;
  int port_label_ = -1;
  // Egress latency histogram + cycle->ns conversion as a Q32.32 fixed-point
  // multiplier (ns = cycles * mult >> 32), so the per-packet conversion is
  // one integer multiply-shift instead of int<->double round trips.
  // Null/0 when unbound.
  telemetry::LatencyHistogram* tele_lat_ = nullptr;
  uint64_t ns_per_cycle_q32_ = 0;
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_TO_DEVICE_HPP_
