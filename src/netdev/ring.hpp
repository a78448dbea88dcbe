// Queue primitives for the software NIC.
//
// SpscRing is a lock-free single-producer/single-consumer ring buffer —
// the data structure behind each NIC descriptor queue once the §4.2 rule
// "each network queue is accessed by a single core" holds. LockedRing is
// the deliberately-worse alternative (one mutex around a deque) used to
// demonstrate what shared queues cost; the Fig 6/7 models quantify that
// cost analytically and the functional tests exercise both.
#ifndef RB_NETDEV_RING_HPP_
#define RB_NETDEV_RING_HPP_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "common/log.hpp"

namespace rb {

// Lock-free SPSC bounded ring. Capacity is rounded up to a power of two.
// Producer calls TryPush/TryPushBurst, consumer calls TryPop/TryPopBurst;
// size() is approximate when both sides run concurrently.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    slots_ = std::make_unique<T[]>(cap);
  }

  bool TryPush(T item) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) {
      return false;  // full
    }
    slots_[head & mask_] = std::move(item);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Pushes up to `n` items with one head/tail synchronization: a single
  // acquire of tail_, a straight copy into the free slots, one release of
  // head_. Returns how many were pushed: `items[0, pushed)` are in the
  // ring (and may already be popped), the rest stay with the caller.
  size_t TryPushBurst(const T* items, size_t n) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_.load(std::memory_order_acquire);
    size_t room = mask_ + 1 - (head - tail);
    if (room > n) {
      room = n;
    }
    for (size_t i = 0; i < room; ++i) {
      slots_[(head + i) & mask_] = items[i];
    }
    if (room > 0) {
      head_.store(head + room, std::memory_order_release);
    }
    return room;
  }

  bool TryPop(T* out) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) {
      return false;  // empty
    }
    *out = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Pops up to `max` items with one head/tail synchronization: a single
  // acquire of head_, a straight copy of the available slots, one release
  // of tail_ — instead of two atomics per item through TryPop.
  size_t TryPopBurst(T* out, size_t max) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_acquire);
    size_t avail = head - tail;
    if (avail > max) {
      avail = max;
    }
    for (size_t i = 0; i < avail; ++i) {
      out[i] = std::move(slots_[(tail + i) & mask_]);
    }
    if (avail > 0) {
      tail_.store(tail + avail, std::memory_order_release);
    }
    return avail;
  }

  size_t size() const {
    // Read tail before head: the producer only advances head_, so a head
    // sampled after tail can never be older than it and the difference
    // cannot underflow. (Reading head first let a concurrent consumer
    // advance tail_ past the stale head, wrapping size() to ~SIZE_MAX and
    // poisoning occupancy gauges.) Churn between the two loads can still
    // inflate the difference past the ring size, so clamp into
    // [0, capacity] — size() is approximate under concurrency, but always
    // a plausible occupancy.
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t head = head_.load(std::memory_order_acquire);
    const size_t diff = head > tail ? head - tail : 0;
    return diff > mask_ + 1 ? mask_ + 1 : diff;
  }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return mask_ + 1; }

 private:
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) std::atomic<size_t> tail_{0};
  size_t mask_;
  std::unique_ptr<T[]> slots_;
};

// Mutex-protected MPMC queue; models the pre-multi-queue world where every
// core locks the single port queue.
template <typename T>
class LockedRing {
 public:
  explicit LockedRing(size_t capacity) : capacity_(capacity) {}

  bool TryPush(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.size() >= capacity_) {
      return false;
    }
    items_.push_back(std::move(item));
    return true;
  }

  bool TryPop(T* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) {
      return false;
    }
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<T> items_;
};

}  // namespace rb

#endif  // RB_NETDEV_RING_HPP_
