// Queue: the push-to-pull boundary. Drop-tail with fixed capacity, like
// Click's Queue element. Uses the lock-free SPSC ring, which is safe under
// RouteBricks' scheduling discipline (a queue sits between exactly one
// pushing core and one pulling core).
//
// Batches on both sides: PushBatch enqueues a whole burst with one ring
// publish (packets that do not fit are the *only* ones counted and
// released as drops), and PullBatch dequeues up to the caller's burst in
// one call — the handoff between a kp-sized poll burst and a kn-sized
// transmit burst. Only elements that pull their input (Counter, ToDevice)
// may be wired downstream of a Queue (Router::PullPathError).
//
// Overload control (DESIGN.md §12):
//  - High/low watermarks: when occupancy reaches `hi_watermark` the queue
//    raises a sticky Blocked() signal (PushHeadroom() == 0) that upstream
//    pollers (FromDevice) observe to shrink their poll burst; the signal
//    clears only when the *pull* side drains occupancy to `lo_watermark`,
//    giving hysteresis instead of flapping at the brim.
//  - CoDel AQM (Nichols & Jacobson, CACM 2012): instead of waiting for
//    tail-drop, the dequeue side measures per-packet sojourn time and
//    drops at an escalating rate (interval/sqrt(count)) while sojourn
//    stays above `target` for a full `interval`. The clock is injectable
//    so tests and the DES drive it deterministically.
//
// Latency plane (DESIGN.md §15): when a PathTracer is bound the queue
// stamps enqueue time for every packet (the same field CoDel uses) and, on
// dequeue, records a "<name>/deq" hop for sampled packets carrying the
// measured queueing wait — this is what splits per-hop residency into
// queueing wait vs downstream service time in exported traces. The
// last-dequeued sojourn is also published as "elem/<name>/wait_s" and the
// "<name>.wait" handler, the live feed for rb_top's wait sparkline.
#ifndef RB_CLICK_ELEMENTS_QUEUE_HPP_
#define RB_CLICK_ELEMENTS_QUEUE_HPP_

#include <atomic>

#include "click/element.hpp"
#include "netdev/ring.hpp"

namespace rb {

enum class AqmMode : uint8_t {
  kTailDrop,  // classic Click Queue: drop arrivals once full
  kCoDel,     // sojourn-time controlled drops on the dequeue side
};

struct QueueOptions {
  size_t capacity = 1024;
  // 0 disables watermarks (legacy behavior: never Blocked). When
  // hi_watermark > 0 and lo_watermark == 0, lo defaults to hi / 2.
  size_t hi_watermark = 0;
  size_t lo_watermark = 0;
  AqmMode aqm = AqmMode::kTailDrop;
  double codel_target_s = 5e-3;      // acceptable standing sojourn
  double codel_interval_s = 100e-3;  // how long above target before drops
};

class QueueElement : public Element {
 public:
  explicit QueueElement(size_t capacity = 1024);
  explicit QueueElement(const QueueOptions& options);

  const char* class_name() const override { return "Queue"; }

  void PushBatch(int port, PacketBatch& batch) override;
  size_t PullBatch(int port, PacketBatch* out, int max) override;

  // Adds readers of the queue's own counts on top of the standard element
  // metrics: the "elem/<name>/occupancy_hw" and "elem/<name>/wait_s"
  // gauges (highwater(), last_wait_s()), the per-cause drop counters
  // "elem/<name>/drops/queue_overflow" and, under CoDel,
  // "elem/<name>/drops/aqm", and "elem/<name>/blocked_events" when a high
  // watermark is configured. Binding a tracer turns on enqueue stamping
  // (see header comment).
  void BindTelemetry(telemetry::MetricRegistry* registry, telemetry::PathTracer* tracer,
                     const std::string& prefix = "") override;

  // Queue introspection handlers (DESIGN.md §13) on top of the element
  // defaults: reads `occupancy`/`capacity`/`highwater`/`blocked`/`aqm`,
  // read-write `hi`/`lo` (watermarks; 0 disables) and
  // `codel_target_us`/`codel_interval_us` — the live-tuning surface for
  // an operator chasing a CoDel storm or a watermark misconfiguration
  // while traffic flows.
  void AddHandlers(telemetry::HandlerRegistry* handlers) override;

  // --- backpressure ---
  bool backpressure_boundary() const override { return true; }
  // Blocked -> 0. Unblocked with watermarks -> packets until hi. No
  // watermarks -> SIZE_MAX (legacy tail-drop queues exert no pressure).
  size_t PushHeadroom() const override;
  bool Blocked() const { return blocked_.load(std::memory_order_acquire); }

  // Clock used for CoDel sojourn measurement; defaults to
  // telemetry::NowSeconds (steady clock). Tests and DES-driven graphs
  // inject a deterministic source. Call before traffic flows.
  using ClockFn = double (*)();
  void set_clock(ClockFn clock);

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return ring_.capacity(); }
  uint64_t highwater() const { return highwater_.load(std::memory_order_relaxed); }
  // The configuration the queue was built with; the watermark and CoDel
  // knobs may have been live-tuned since (see the live accessors below).
  const QueueOptions& options() const { return opt_; }
  size_t hi_watermark() const { return hi_wm_.load(std::memory_order_relaxed); }
  size_t lo_watermark() const { return lo_wm_.load(std::memory_order_relaxed); }
  double codel_target_s() const { return codel_target_.load(std::memory_order_relaxed); }
  double codel_interval_s() const { return codel_interval_.load(std::memory_order_relaxed); }
  uint64_t overflow_drops() const { return overflow_drops_.load(std::memory_order_relaxed); }
  uint64_t aqm_drops() const { return aqm_drops_.load(std::memory_order_relaxed); }
  uint64_t blocked_events() const { return blocked_events_.load(std::memory_order_relaxed); }
  // Sojourn of the most recently dequeued (stamped) packet, seconds.
  double last_wait_s() const { return last_wait_s_.load(std::memory_order_relaxed); }

 private:
  void NoteDepth();
  void MaybeBlock();    // push side: raise Blocked at hi
  void MaybeUnblock();  // pull side: clear Blocked at lo
  // CoDel control law applied to one dequeued packet; true = drop it.
  bool CodelShouldDrop(double sojourn, double now);
  // Counts `dropped` as AQM drops and releases it; empties the batch.
  void DropAqm(PacketBatch& dropped);
  // Publishes one dequeued packet's sojourn (wait gauge + sparkline feed)
  // and, when sampled, its "<name>/deq" trace hop. Pull-side only.
  void NoteDequeue(Packet* p, double now);
  // Trace-hop pass over a burst that was popped via TryPopBurst (the
  // tail-drop fast path keeps its single ring synchronization; this runs
  // only when a tracer is bound).
  void NoteDequeueBurst(Packet* const* popped, size_t n);

  QueueOptions opt_;
  SpscRing<Packet*> ring_;
  ClockFn clock_;
  // Live-tunable copies of the watermark/CoDel knobs: written by control
  // handlers, read (relaxed) by the push/pull hot paths. The AQM *mode*
  // stays fixed — switching tail-drop to CoDel mid-run would dequeue
  // packets that were never sojourn-stamped.
  std::atomic<size_t> hi_wm_{0};
  std::atomic<size_t> lo_wm_{0};
  std::atomic<double> codel_target_{0};
  std::atomic<double> codel_interval_{0};
  // Sticky watermark state: set by the pushing core (release) once
  // occupancy reaches hi, cleared by the pulling core (release) once it
  // drains to lo; pollers read with acquire. Both transitions are
  // single-writer on their own side.
  std::atomic<bool> blocked_{false};

  // True when arrivals get enqueue-time stamps: CoDel always, or any
  // queue with a bound tracer (wait decomposition needs the stamp).
  bool stamp_sojourn_ = false;
  // "<name>/deq" hop point, interned at BindTelemetry time (the name is
  // final by then) so the dequeue path never builds strings.
  telemetry::ScopeId deq_scope_ = telemetry::kInvalidScope;

  // CoDel state (pull-side only, single-writer).
  bool codel_dropping_ = false;
  double codel_first_above_ = 0;  // when sojourn first exceeded target
  double codel_drop_next_ = 0;    // next scheduled drop while in dropping
  uint32_t codel_count_ = 0;      // drops this dropping episode

  // Relaxed atomics: single-writer on their own side of the queue, read
  // live by control-socket handlers and the registry's readers.
  std::atomic<uint64_t> highwater_{0};
  std::atomic<uint64_t> overflow_drops_{0};
  std::atomic<uint64_t> aqm_drops_{0};
  std::atomic<uint64_t> blocked_events_{0};
  std::atomic<double> last_wait_s_{0};
};

}  // namespace rb

#endif  // RB_CLICK_ELEMENTS_QUEUE_HPP_
