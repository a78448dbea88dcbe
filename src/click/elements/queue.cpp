#include "click/elements/queue.hpp"

#include <cmath>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"

namespace rb {

namespace {
QueueOptions Normalize(QueueOptions opt) {
  if (opt.hi_watermark > 0) {
    RB_CHECK_MSG(opt.hi_watermark <= opt.capacity, "Queue hi watermark above capacity");
    if (opt.lo_watermark == 0) {
      opt.lo_watermark = opt.hi_watermark / 2;
    }
    RB_CHECK_MSG(opt.lo_watermark < opt.hi_watermark, "Queue lo watermark must be below hi");
  }
  if (opt.aqm == AqmMode::kCoDel) {
    RB_CHECK_MSG(opt.codel_target_s > 0 && opt.codel_interval_s > 0,
                 "CoDel target/interval must be positive");
  }
  return opt;
}
}  // namespace

QueueElement::QueueElement(size_t capacity) : QueueElement(QueueOptions{.capacity = capacity}) {}

QueueElement::QueueElement(const QueueOptions& options)
    : Element(1, 1),
      opt_(Normalize(options)),
      ring_(opt_.capacity),
      clock_(&telemetry::NowSeconds) {
  hi_wm_.store(opt_.hi_watermark, std::memory_order_relaxed);
  lo_wm_.store(opt_.lo_watermark, std::memory_order_relaxed);
  codel_target_.store(opt_.codel_target_s, std::memory_order_relaxed);
  codel_interval_.store(opt_.codel_interval_s, std::memory_order_relaxed);
  stamp_sojourn_ = opt_.aqm == AqmMode::kCoDel;
}

void QueueElement::set_clock(ClockFn clock) {
  RB_CHECK(clock != nullptr);
  clock_ = clock;
}

void QueueElement::BindTelemetry(telemetry::MetricRegistry* registry,
                                 telemetry::PathTracer* tracer, const std::string& prefix) {
  Element::BindTelemetry(registry, tracer, prefix);
  if (this->tracer() != nullptr) {
    // Wait decomposition needs every arrival stamped, not just CoDel's;
    // the dequeue hop point is interned now so the pull path stays
    // string-free.
    stamp_sojourn_ = true;
    deq_scope_ = telemetry::InternScopeName(name() + "/deq");
  }
  if (telemetry::Enabled() && registry != nullptr) {
    const std::string base = prefix + "elem/" + name();
    registry->AddGaugeReader(base + "/occupancy_hw",
                             [this] { return static_cast<double>(highwater()); });
    registry->AddGaugeReader(base + "/wait_s", [this] { return last_wait_s(); });
    registry->AddCounterReader(base + "/drops/queue_overflow",
                               [this] { return overflow_drops(); });
    if (opt_.aqm == AqmMode::kCoDel) {
      registry->AddCounterReader(base + "/drops/aqm", [this] { return aqm_drops(); });
    }
    if (opt_.hi_watermark > 0) {
      registry->AddCounterReader(base + "/blocked_events", [this] { return blocked_events(); });
    }
  }
}

void QueueElement::AddHandlers(telemetry::HandlerRegistry* handlers) {
  Element::AddHandlers(handlers);
  const std::string base = name() + ".";
  handlers->AddRead(base + "occupancy",
                    [this] { return Format("%zu", ring_.size()); });
  handlers->AddRead(base + "capacity", [this] { return Format("%zu", ring_.capacity()); });
  handlers->AddRead(base + "highwater", [this] {
    return Format("%llu", static_cast<unsigned long long>(highwater()));
  });
  handlers->AddRead(base + "blocked", [this] { return std::string(Blocked() ? "1" : "0"); });
  handlers->AddRead(base + "aqm", [this] {
    return std::string(opt_.aqm == AqmMode::kCoDel ? "codel" : "tail_drop");
  });
  handlers->AddRead(base + "wait_us", [this] {
    // Sojourn of the most recently dequeued stamped packet — rb_top polls
    // this for the per-queue wait sparkline. 0 until stamping is active.
    return Format("%.3f", last_wait_s() * 1e6);
  });
  handlers->AddRead(base + "hi", [this] { return Format("%zu", hi_watermark()); });
  handlers->AddWrite(base + "hi", [this](const std::string& value) {
    uint64_t v = 0;
    if (!telemetry::ParseHandlerU64(value, &v)) {
      return telemetry::HandlerResult::Error("hi expects a non-negative integer, got '" + value +
                                             "'");
    }
    if (v > ring_.capacity()) {
      return telemetry::HandlerResult::Error(
          Format("hi %llu above capacity %zu", static_cast<unsigned long long>(v),
                 ring_.capacity()));
    }
    if (v == 0) {
      // Disabling watermarks also clears any sticky blocked state, else a
      // later re-enable would inherit a stale Blocked() signal.
      hi_wm_.store(0, std::memory_order_relaxed);
      blocked_.store(false, std::memory_order_release);
      return telemetry::HandlerResult::Ok();
    }
    const size_t lo = lo_wm_.load(std::memory_order_relaxed);
    if (lo >= v) {
      // Keep the invariant lo < hi the same way construction does.
      lo_wm_.store(static_cast<size_t>(v) / 2, std::memory_order_relaxed);
    }
    hi_wm_.store(static_cast<size_t>(v), std::memory_order_relaxed);
    return telemetry::HandlerResult::Ok();
  });
  handlers->AddRead(base + "lo", [this] { return Format("%zu", lo_watermark()); });
  handlers->AddWrite(base + "lo", [this](const std::string& value) {
    uint64_t v = 0;
    if (!telemetry::ParseHandlerU64(value, &v)) {
      return telemetry::HandlerResult::Error("lo expects a non-negative integer, got '" + value +
                                             "'");
    }
    const size_t hi = hi_wm_.load(std::memory_order_relaxed);
    if (hi > 0 && v >= hi) {
      return telemetry::HandlerResult::Error(
          Format("lo %llu must be below hi %zu", static_cast<unsigned long long>(v), hi));
    }
    lo_wm_.store(static_cast<size_t>(v), std::memory_order_relaxed);
    return telemetry::HandlerResult::Ok();
  });
  handlers->AddRead(base + "codel_target_us",
                    [this] { return Format("%.1f", codel_target_s() * 1e6); });
  handlers->AddWrite(base + "codel_target_us", [this](const std::string& value) {
    double v = 0;
    if (!telemetry::ParseHandlerDouble(value, &v) || v <= 0) {
      return telemetry::HandlerResult::Error("codel_target_us expects a positive number, got '" +
                                             value + "'");
    }
    codel_target_.store(v * 1e-6, std::memory_order_relaxed);
    return telemetry::HandlerResult::Ok();
  });
  handlers->AddRead(base + "codel_interval_us",
                    [this] { return Format("%.1f", codel_interval_s() * 1e6); });
  handlers->AddWrite(base + "codel_interval_us", [this](const std::string& value) {
    double v = 0;
    if (!telemetry::ParseHandlerDouble(value, &v) || v <= 0) {
      return telemetry::HandlerResult::Error("codel_interval_us expects a positive number, got '" +
                                             value + "'");
    }
    codel_interval_.store(v * 1e-6, std::memory_order_relaxed);
    return telemetry::HandlerResult::Ok();
  });
}

void QueueElement::NoteDepth() {
  size_t depth = ring_.size();
  if (depth > highwater_.load(std::memory_order_relaxed)) {
    highwater_.store(depth, std::memory_order_relaxed);
  }
}

size_t QueueElement::PushHeadroom() const {
  const size_t hi = hi_wm_.load(std::memory_order_relaxed);
  if (hi == 0) {
    return SIZE_MAX;
  }
  if (blocked_.load(std::memory_order_acquire)) {
    return 0;
  }
  size_t depth = ring_.size();
  return depth >= hi ? 0 : hi - depth;
}

void QueueElement::MaybeBlock() {
  const size_t hi = hi_wm_.load(std::memory_order_relaxed);
  if (hi == 0 || blocked_.load(std::memory_order_relaxed)) {
    return;
  }
  const size_t depth = ring_.size();
  if (depth >= hi) {
    blocked_.store(true, std::memory_order_release);
    blocked_events_.fetch_add(1, std::memory_order_relaxed);
    telemetry::FrRecord(telemetry::FrEvent::kBlocked, profile_scope(), depth);
  }
}

void QueueElement::MaybeUnblock() {
  const size_t hi = hi_wm_.load(std::memory_order_relaxed);
  if (hi == 0 || !blocked_.load(std::memory_order_relaxed)) {
    return;
  }
  const size_t depth = ring_.size();
  if (depth <= lo_wm_.load(std::memory_order_relaxed)) {
    blocked_.store(false, std::memory_order_release);
    telemetry::FrRecord(telemetry::FrEvent::kUnblocked, profile_scope(), depth);
  }
}

void QueueElement::DropAqm(PacketBatch& dropped) {
  aqm_drops_.fetch_add(dropped.size(), std::memory_order_relaxed);
  DropBatch(dropped);
}

void QueueElement::NoteDequeue(Packet* p, double now) {
  const double wait = now - p->enqueue_time();
  last_wait_s_.store(wait, std::memory_order_relaxed);
  if (tracer() != nullptr && p->trace_handle() != 0) {
    // The dequeue hop carries the queueing wait; the span from here to
    // the next hop is pure service time.
    tracer()->Record(p->trace_handle(), deq_scope_, now, wait);
  }
}

void QueueElement::NoteDequeueBurst(Packet* const* popped, size_t n) {
  const double now = clock_();
  for (size_t i = 0; i < n; ++i) {
    NoteDequeue(popped[i], now);
  }
}

void QueueElement::PushBatch(int /*port*/, PacketBatch& batch) {
  // Drop-tail in one ring publish: the prefix that fits is enqueued and
  // only the overflow is counted and released as drops, each packet once,
  // never double-released with the enqueued prefix. Stamps go on before
  // the publish: an enqueued packet may already belong to the puller.
  if (stamp_sojourn_) {
    const double now = clock_();
    for (Packet* p : batch) {
      p->set_enqueue_time(now);
    }
  }
  const auto accepted = static_cast<uint32_t>(ring_.TryPushBurst(batch.begin(), batch.size()));
  if (accepted < batch.size()) {
    PacketBatch overflow;
    batch.SplitAfter(accepted, &overflow);
    overflow_drops_.fetch_add(overflow.size(), std::memory_order_relaxed);
    DropBatch(overflow);
  }
  batch.Clear();  // enqueued prefix now belongs to the ring
  NoteDepth();
  MaybeBlock();
}

bool QueueElement::CodelShouldDrop(double sojourn, double now) {
  const double target = codel_target_.load(std::memory_order_relaxed);
  const double interval = codel_interval_.load(std::memory_order_relaxed);
  if (sojourn < target) {
    // Back under control: leave the dropping state and forget the
    // above-target episode.
    codel_first_above_ = 0;
    codel_dropping_ = false;
    return false;
  }
  if (!codel_dropping_) {
    if (codel_first_above_ == 0) {
      // Sojourn just crossed target; give the queue one full interval to
      // drain on its own before the first drop.
      codel_first_above_ = now + interval;
      return false;
    }
    if (now < codel_first_above_) {
      return false;
    }
    // Enter the dropping state. If the last episode ended recently,
    // resume near its drop rate instead of restarting from 1 (the CoDel
    // pseudocode's count - 2 re-entry rule).
    codel_dropping_ = true;
    codel_count_ = (codel_count_ > 2 && now - codel_drop_next_ < interval) ? codel_count_ - 2 : 1;
    codel_drop_next_ = now + interval / std::sqrt(static_cast<double>(codel_count_));
    return true;
  }
  if (now >= codel_drop_next_) {
    // Control law: each successive drop comes interval/sqrt(count) after
    // the previous, steadily increasing the drop rate until sojourn
    // falls back under target.
    codel_count_++;
    codel_drop_next_ += interval / std::sqrt(static_cast<double>(codel_count_));
    return true;
  }
  return false;
}

size_t QueueElement::PullBatch(int /*port*/, PacketBatch* out, int max) {
  const bool codel = opt_.aqm == AqmMode::kCoDel;
  size_t moved = 0;
  if (!codel) {
    // No per-packet sojourn check to run: pop the whole burst under one
    // ring head/tail synchronization straight into the batch tail. With a
    // tracer bound, the wait/hop pass runs over the already-popped burst
    // so the ring synchronization stays a single head/tail exchange.
    size_t want = static_cast<size_t>(max) < out->room()
                      ? static_cast<size_t>(max)
                      : out->room();
    Packet** popped = out->tail();
    moved = ring_.TryPopBurst(popped, want);
    out->CommitAppended(static_cast<uint32_t>(moved));
    if (tracer() != nullptr && moved > 0) {
      NoteDequeueBurst(popped, moved);
    }
    MaybeUnblock();
    return moved;
  }
  PacketBatch dropped;  // CoDel's victims, released through DropBatch
  Packet* p = nullptr;
  while (moved < static_cast<size_t>(max) && !out->full() && ring_.TryPop(&p)) {
    const double now = clock_();
    if (CodelShouldDrop(now - p->enqueue_time(), now)) {
      telemetry::FrRecord(telemetry::FrEvent::kAqmDrop, profile_scope(), codel_count_);
      dropped.PushBack(p);
      if (dropped.full()) {
        DropAqm(dropped);
      }
      continue;
    }
    NoteDequeue(p, now);
    out->PushBack(p);
    moved++;
  }
  DropAqm(dropped);
  // Low-watermark unblock must fire on the pull side even when the batch
  // fills up (partial consumption of the ring) or the consumer drained
  // via AQM drops only — the push side never clears the sticky flag.
  MaybeUnblock();
  return moved;
}

}  // namespace rb
