#include "netdev/nic.hpp"

#include <utility>

#include "common/log.hpp"
#include "common/prefetch.hpp"
#include "common/strings.hpp"
#include "packet/pool.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/profiler.hpp"

namespace rb {

namespace {

// How many frames ahead the delivery pass prefetches the three lines it
// touches per frame.
constexpr uint32_t kDeliverPrefetchAhead = 8;

// PCIe data DMA and wire bytes of a burst, read before the burst is
// published: once on a ring, its frames may already be the consumer's.
struct BurstSize {
  uint64_t data_txns = 0;
  uint64_t data_bytes = 0;
  uint64_t wire_bytes = 0;
};

BurstSize Measure(Packet* const* pkts, uint32_t n) {
  BurstSize s;
  for (uint32_t i = 0; i < n; ++i) {
    s.data_txns += PcieDataTxns(pkts[i]->length());
    s.data_bytes += pkts[i]->length();
    s.wire_bytes += pkts[i]->wire_bytes();
  }
  return s;
}

// Releases `pkts[from, n)`, the frames a ring had no room for, and
// returns their wire bytes.
uint64_t ReleaseDropped(Packet* const* pkts, uint32_t from, uint32_t n) {
  uint64_t bytes = 0;
  for (uint32_t i = from; i < n; ++i) {
    bytes += pkts[i]->wire_bytes();
    PacketPool::Release(pkts[i]);
  }
  return bytes;
}

}  // namespace

NicPort::NicPort(const NicConfig& config)
    : config_(config), steering_(config.steering, config.num_rx_queues) {
  RB_CHECK(config.num_rx_queues >= 1 && config.num_tx_queues >= 1);
  RB_CHECK(config.kn >= 1);
  for (uint16_t q = 0; q < config.num_rx_queues; ++q) {
    rx_.rings.push_back(std::make_unique<SpscRing<Packet*>>(config.ring_entries));
  }
  for (uint16_t q = 0; q < config.num_tx_queues; ++q) {
    tx_.rings.push_back(std::make_unique<SpscRing<Packet*>>(config.ring_entries));
  }
  staged_slots_ = std::make_unique<Packet*[]>(size_t{config.num_rx_queues} * config.kn);
  staged_.resize(config.num_rx_queues);
  for (uint16_t q = 0; q < config.num_rx_queues; ++q) {
    staged_[q].slots = &staged_slots_[size_t{q} * config.kn];
  }
}

void NicPort::BindTelemetry(telemetry::MetricRegistry* registry, const std::string& prefix) {
  if (!telemetry::Enabled() || registry == nullptr) {
    return;
  }
  for (auto [dir, name] : {std::pair{&rx_, "rx"}, std::pair{&tx_, "tx"}}) {
    const PortCounters& c = dir->counters;
    registry->AddCounterReader(prefix + name + "_packets",
                               [&c] { return c.packets.load(std::memory_order_relaxed); });
    registry->AddCounterReader(prefix + name + "_bytes",
                               [&c] { return c.bytes.load(std::memory_order_relaxed); });
    registry->AddCounterReader(prefix + name + "_drops",
                               [&c] { return c.drops.load(std::memory_order_relaxed); });
    for (size_t q = 0; q < dir->rings.size(); ++q) {
      dir->tele_ring_hw.push_back(
          registry->GetGauge(Format("%s%sq%zu/occupancy_hw", prefix.c_str(), name, q)));
    }
  }
}

void NicPort::DeliverBatch(PacketBatch* batch, SimTime now) {
  DeliverBurst(batch->begin(), batch->size(), now);
  batch->Clear();
}

void NicPort::DeliverBurst(Packet* const* pkts, uint32_t n, SimTime now) {
  // One cycle read covers the whole burst: the frames of one wire batch
  // arrive back-to-back, so per-packet rdtsc would only measure the
  // stamping loop itself.
  const uint64_t ingress_cycles =
      telemetry::IngressStampEnabled() ? telemetry::ReadCycles() : 0;
  const uint32_t kn = config_.kn;
  const SimTime timeout = config_.batch_timeout;
  for (uint32_t i = 0; i < n; ++i) {
    if (i + kDeliverPrefetchAhead < n) {
      // The stamps below write both metadata lines and steering reads the
      // header line; by delivery those lines may sit in L2 or beyond.
      Packet* ahead = pkts[i + kDeliverPrefetchAhead];
      PrefetchMetadataForWrite(ahead);
      PrefetchForRead(ahead->default_data());
    }
    Packet* p = pkts[i];
    p->set_arrival_time(now);
    p->set_ingress_cycles(ingress_cycles);
    const uint16_t q = steering_.SelectRxQueue(p);
    Staged& st = staged_[q];
    if (st.count == 0) {
      st.oldest = now;
    }
    st.slots[st.count++] = p;
    if (st.count >= kn || (timeout > 0 && now - st.oldest >= timeout)) {
      CommitStaged(q);
    }
  }
}

void NicPort::CommitStaged(uint16_t q) {
  Staged& st = staged_[q];
  const uint32_t n = st.count;
  if (n == 0) {
    return;
  }
  // One batched descriptor transfer for the whole group on top of every
  // frame's data DMA.
  const RingBurst pushed = PushBurst(rx_, q, st.slots, n, PcieDescriptorTxns(n),
                                     uint64_t{n} * kDescriptorBytes);
  if (pushed.packets < n) {
    // NIC had no free rx descriptors — the event the paper's loss-free
    // envelope is defined against; a = rx queue index, b = frames lost.
    static const telemetry::ScopeId kNicScope = telemetry::InternScopeName("nic/rx");
    telemetry::FrRecord(telemetry::FrEvent::kRxOverflow, kNicScope, q, n - pushed.packets);
  }
  st.count = 0;
}

void NicPort::FlushStaged(SimTime now) {
  if (config_.batch_timeout <= 0) {
    return;
  }
  for (uint16_t q = 0; q < config_.num_rx_queues; ++q) {
    Staged& st = staged_[q];
    if (st.count > 0 && now - st.oldest >= config_.batch_timeout) {
      CommitStaged(q);
    }
  }
}

void NicPort::FlushAllStaged() {
  for (uint16_t q = 0; q < config_.num_rx_queues; ++q) {
    CommitStaged(q);
  }
}

size_t NicPort::PollRx(uint16_t q, Packet** out, size_t max) {
  RB_CHECK(q < config_.num_rx_queues);
  return rx_.rings[q]->TryPopBurst(out, max);
}

NicPort::RingBurst NicPort::Transmit(uint16_t q, Packet* const* pkts, uint32_t n) {
  RB_CHECK(q < config_.num_tx_queues);
  if (n == 0) {
    return {};
  }
  // Every frame's data crosses the PCIe bus on transmit too. The driver's
  // NIC-driven batching applies to descriptor writes; we charge the
  // amortized cost assuming the configured kn (the driver groups kn
  // descriptor writebacks per transaction on average).
  return PushBurst(tx_, q, pkts, n, 0, 0);
}

NicPort::RingBurst NicPort::PushBurst(Direction& dir, uint16_t q, Packet* const* pkts,
                                      uint32_t n, uint64_t extra_txns,
                                      uint64_t extra_bytes) {
  const BurstSize size = Measure(pkts, n);
  pcie_.Add(extra_txns + size.data_txns, extra_bytes + size.data_bytes);
  RingBurst pushed;
  pushed.packets = static_cast<uint32_t>(dir.rings[q]->TryPushBurst(pkts, n));
  const uint32_t drops = n - pushed.packets;
  pushed.bytes = size.wire_bytes - ReleaseDropped(pkts, pushed.packets, n);
  dir.counters.Add(pushed.packets, pushed.bytes, drops);
  if (pushed.packets > 0 && !dir.tele_ring_hw.empty()) {
    dir.tele_ring_hw[q]->UpdateMax(static_cast<double>(dir.rings[q]->size()));
  }
  return pushed;
}

size_t NicPort::DrainTx(Packet** out, size_t max) {
  // One TryPopBurst per ring drains a queue's whole backlog under a single
  // head/tail synchronization, instead of two atomics per packet while
  // ping-ponging between rings. Fairness is per-queue rather than
  // per-packet: the starting ring rotates across calls.
  size_t n = 0;
  for (uint16_t visited = 0; visited < config_.num_tx_queues && n < max;
       ++visited) {
    n += tx_.rings[tx_drain_rr_]->TryPopBurst(&out[n], max - n);
    // Wrap without the integer divide a runtime '%' would cost.
    tx_drain_rr_ = static_cast<uint16_t>(
        tx_drain_rr_ + 1 == config_.num_tx_queues ? 0 : tx_drain_rr_ + 1);
  }
  return n;
}

}  // namespace rb
