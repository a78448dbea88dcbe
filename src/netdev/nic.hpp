// Software model of a multi-queue NIC port.
//
// A NicPort has `num_rx_queues` receive and `num_tx_queues` transmit
// descriptor rings (SPSC, lock-free — the §4.2 driver), a steering engine
// that picks the rx queue for each delivered frame, and NIC-driven
// batching: frames delivered to an rx queue are staged and become visible
// to the polling core only in batches of `kn` descriptors (the paper's
// extension that packs kn 16-byte descriptors into PCIe transactions,
// Table 1). A configurable staging timeout implements the latency-bounding
// feature §4.2 mentions as future work.
//
// PCIe traffic is accounted per the PCIe 1.1 parameters the paper quotes:
// descriptors are 16 B, the maximum transaction payload is 256 B, so at
// most 16 descriptors fit one transaction.
//
// The NIC does its own bookkeeping once per burst, as §4.2's batching
// amortizes the driver's: a delivered burst is stamped, steered and staged
// in one pass, a committed kn group and a Transmit burst each reach their
// ring in one publish (SpscRing::TryPushBurst), and the PCIe and port
// counters and the ring high-water gauges take one update per burst.
#ifndef RB_NETDEV_NIC_HPP_
#define RB_NETDEV_NIC_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "netdev/ring.hpp"
#include "netdev/steering.hpp"
#include "packet/batch.hpp"
#include "packet/packet.hpp"
#include "telemetry/metrics.hpp"

namespace rb {

struct NicConfig {
  uint16_t num_rx_queues = 1;
  uint16_t num_tx_queues = 1;
  size_t ring_entries = 512;          // descriptors per queue
  uint16_t kn = 1;                    // NIC-driven batching factor (1 = off)
  SimTime batch_timeout = 0;          // 0 = no timeout (paper's prototype)
  SteeringMode steering = SteeringMode::kRss;
  double line_rate_bps = 10e9;        // external port line rate R
};

// Accounting constants from the paper (§4.1, Table 1 caption).
constexpr uint32_t kDescriptorBytes = 16;
constexpr uint32_t kPcieMaxPayload = 256;
constexpr uint32_t kMaxDescriptorsPerPcieTxn = kPcieMaxPayload / kDescriptorBytes;  // 16

// Transactions that move `descriptors` descriptors packed as densely as
// the payload limit allows, and that move one frame's `bytes` of data.
constexpr uint64_t PcieDescriptorTxns(uint64_t descriptors) {
  return (descriptors + kMaxDescriptorsPerPcieTxn - 1) / kMaxDescriptorsPerPcieTxn;
}
constexpr uint64_t PcieDataTxns(uint32_t bytes) {
  return (bytes + kPcieMaxPayload - 1) / kPcieMaxPayload;
}

// Shared by every queue on a port, so the adder uses relaxed atomics
// (queues are polled by different cores under ThreadScheduler).
struct PcieCounters {
  std::atomic<uint64_t> transactions{0};
  std::atomic<uint64_t> payload_bytes{0};

  // Charges a whole burst's bus traffic: one relaxed RMW per counter.
  void Add(uint64_t txns, uint64_t bytes) {
    transactions.fetch_add(txns, std::memory_order_relaxed);
    payload_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
};

class NicPort {
 public:
  explicit NicPort(const NicConfig& config);

  // --- receive side (called by the wire / traffic source) ---

  // Delivers the frames of `batch`, arriving back to back on the wire at
  // simulated time `now`, in one pass (ownership transfers; the batch is
  // left empty). Each frame is stamped with `now` and with the ingress
  // cycle count (telemetry::ReadCycles, read once per burst) for the
  // measured latency plane, unless telemetry::SetIngressStampEnabled(false)
  // has shed the stamp; it is steered to an rx queue and staged there for
  // NIC-driven batching. A queue's kn-th staged frame, or a frame that
  // finds the queue's oldest staged one batch_timeout old, commits the
  // queue's group; a frame whose ring is full at commit time is dropped
  // and counted in rx_counters().drops (as a NIC with no free descriptors
  // would).
  void DeliverBatch(PacketBatch* batch, SimTime now);

  // The one-frame case of DeliverBatch. Always takes ownership of `p`.
  void Deliver(Packet* p, SimTime now) { DeliverBurst(&p, 1, now); }

  // Flushes any staged descriptors whose timeout expired (no-op when
  // batch_timeout == 0). Called periodically by the simulation loop.
  void FlushStaged(SimTime now);
  // Unconditionally flushes all staged descriptors (end of experiment).
  void FlushAllStaged();

  // --- polling core side ---

  // Pops up to `max` packets from rx queue `q`. Returns count. The caller
  // owns the returned packets.
  size_t PollRx(uint16_t q, Packet** out, size_t max);

  // What one burst put on a ring.
  struct RingBurst {
    uint32_t packets = 0;
    uint64_t bytes = 0;  // wire bytes of those packets
  };

  // Enqueues `pkts[0, n)` for transmission on tx queue `q` with one ring
  // publish. Takes ownership of every packet: those past the ring's free
  // room are dropped, counted in tx_counters().drops and released. Every
  // frame is charged its PCIe data DMA, and each counter is updated once
  // per call.
  RingBurst Transmit(uint16_t q, Packet* const* pkts, uint32_t n);

  // --- wire side (transmit drain) ---

  // Pops up to `max` packets the NIC would put on the wire (round-robins
  // across tx queues, as the hardware scheduler does).
  size_t DrainTx(Packet** out, size_t max);

  // --- telemetry ---

  // Registers readers of the rx/tx port counters ("<prefix>rx_packets",
  // "<prefix>rx_bytes", "<prefix>rx_drops", and tx_*) and tracks per-ring
  // occupancy high-water gauges ("<prefix>rxq<q>/occupancy_hw",
  // "<prefix>txq<q>/occupancy_hw"), raised once per ring burst. The port
  // must outlive every snapshot of `registry`. No-op when telemetry is
  // disabled; unbound ports pay only an empty-vector test.
  void BindTelemetry(telemetry::MetricRegistry* registry, const std::string& prefix);

  // --- introspection ---
  Steering& steering() { return steering_; }
  const NicConfig& config() const { return config_; }
  uint16_t num_rx_queues() const { return config_.num_rx_queues; }
  uint16_t num_tx_queues() const { return config_.num_tx_queues; }

  const PortCounters& rx_counters() const { return rx_.counters; }
  const PortCounters& tx_counters() const { return tx_.counters; }
  const PcieCounters& pcie_counters() const { return pcie_; }
  uint64_t rx_queue_depth(uint16_t q) const { return rx_.rings[q]->size(); }

 private:
  // One rx queue's staged frames: a fixed kn-slot window of
  // staged_slots_.
  struct Staged {
    Packet** slots = nullptr;
    uint32_t count = 0;
    SimTime oldest = 0;
  };

  // One direction of the port: its rings, its counters, and the rings'
  // high-water gauges (empty until BindTelemetry).
  struct Direction {
    std::vector<std::unique_ptr<SpscRing<Packet*>>> rings;
    PortCounters counters;
    std::vector<telemetry::Gauge*> tele_ring_hw;  // per ring
  };

  // The delivery pass behind Deliver and DeliverBatch.
  void DeliverBurst(Packet* const* pkts, uint32_t n, SimTime now);
  void CommitStaged(uint16_t q);
  // Publishes `pkts[0, n)` to ring `q` of `dir` in one push and releases
  // the frames past its free room. Charges the bus every frame's data DMA
  // plus `extra_txns`/`extra_bytes` (rx descriptors), and counts the
  // burst once into `dir`'s counters and ring high-water gauge.
  RingBurst PushBurst(Direction& dir, uint16_t q, Packet* const* pkts, uint32_t n,
                      uint64_t extra_txns, uint64_t extra_bytes);

  NicConfig config_;
  Steering steering_;
  Direction rx_;
  Direction tx_;
  std::unique_ptr<Packet*[]> staged_slots_;  // kn per rx queue
  std::vector<Staged> staged_;
  PcieCounters pcie_;
  uint16_t tx_drain_rr_ = 0;
};

}  // namespace rb

#endif  // RB_NETDEV_NIC_HPP_
