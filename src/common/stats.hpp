// Statistics primitives used across the library: counters, mean/variance
// accumulators, fixed-bucket histograms with percentile queries, and rate
// (bits/packets per second) bookkeeping for simulated time.
#ifndef RB_COMMON_STATS_HPP_
#define RB_COMMON_STATS_HPP_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rb {

// Online mean / variance / min / max (Welford's algorithm).
class MeanVar {
 public:
  void Add(double x);
  void Merge(const MeanVar& other);
  void Reset();

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Histogram over [lo, hi) with `buckets` equal-width buckets plus overflow
// and underflow buckets. Percentile queries interpolate within a bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);
  void Reset();

  uint64_t count() const { return count_; }

  // p in [0, 100]. Interpolates linearly within the target bucket. Samples
  // outside [lo, hi) land in the underflow/overflow buckets, which have no
  // width to interpolate over; a percentile whose target rank falls in the
  // underflow bucket returns the true observed min() (<= lo), and one that
  // falls in the overflow bucket returns the true observed max() (>= hi).
  // The result is therefore always within [min(), max()] but resolves to a
  // bucket edge value when the histogram range clipped the samples — check
  // underflow()/overflow() to detect clipping.
  double Percentile(double p) const;
  double mean() const { return acc_.mean(); }
  double max() const { return acc_.max(); }
  double min() const { return acc_.min(); }

  // Samples that fell outside [lo, hi) and were clipped to the edge
  // buckets (not interpolated).
  uint64_t underflow() const { return underflow_; }
  uint64_t overflow() const { return overflow_; }

  // Renders "p50=.. p95=.. p99=.. max=.." for logging; appends
  // "uf=.. of=.." whenever any sample was clipped to an edge bucket.
  std::string Summary() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  uint64_t count_ = 0;
  MeanVar acc_;
};

// Simple monotonically increasing counters grouped by name; used for
// per-element and per-port statistics. A NIC port's counters are shared
// by all of its queues, which ThreadScheduler polls from different
// cores, so updates use relaxed atomics (reads convert implicitly).
struct PortCounters {
  std::atomic<uint64_t> packets{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> drops{0};

  // Counts a burst: `n_packets` packets carrying `n_bytes` wire bytes,
  // plus `n_drops` dropped ones. One relaxed RMW per counter per burst,
  // however many packets it covers.
  void Add(uint64_t n_packets, uint64_t n_bytes, uint64_t n_drops = 0) {
    packets.fetch_add(n_packets, std::memory_order_relaxed);
    bytes.fetch_add(n_bytes, std::memory_order_relaxed);
    if (n_drops != 0) {
      drops.fetch_add(n_drops, std::memory_order_relaxed);
    }
  }
};

// Converts packet counts and byte counts observed over `seconds` into rates.
struct Rate {
  double pps = 0.0;
  double bps = 0.0;

  static Rate FromCounts(uint64_t packets, uint64_t bytes, double seconds);
  double gbps() const { return bps / 1e9; }
  double mpps() const { return pps / 1e6; }
};

// Jain's fairness index over a set of allocations; 1.0 == perfectly fair.
double JainFairnessIndex(const std::vector<double>& xs);

}  // namespace rb

#endif  // RB_COMMON_STATS_HPP_
