// Unified metrics plane: typed counters, lazy gauges and log-bucketed
// histograms behind one namespaced registration API.
//
// Design constraints, in order:
//
//  1. Hot-path cheap. A Counter::inc or Histogram::record is a relaxed
//     atomic add into fixed storage — no locks, no allocation, no
//     floating-point transcendentals (bucket indexing uses frexp). Handles
//     are registered once and cached by the caller; the registry mutex
//     guards registration and snapshots only.
//  2. Absorb, don't duplicate. Components that already keep their own
//     counters (transport byte counts, shed counts, cwnd state, ...) are
//     exposed through gauge_fn() — a callback evaluated at snapshot time —
//     instead of being double-counted on the hot path.
//  3. Deterministic exposition. snapshot()/to_text()/to_json() emit
//     metrics sorted by name with fixed formatting, so the emulated
//     cluster's metrics block is byte-identical across runs of a seed.
//
// Naming convention: dot-separated, component-first, lower_snake leaf —
// "frontend.shed", "node.backlog_hwm_s", "net.bytes_sent",
// "ingest.retransmits", "driver.flush_syscalls". Histograms expand to
// <name>.count/.mean/.p50/.p99/.max in snapshots.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace roar {

// Monotone event counter. Thread-safe; relaxed ordering is enough because
// metric reads are statistical, never used for synchronization.
class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Fixed-size log-linear histogram for non-negative samples (latencies,
// sizes). Each power of two is split into kSubBuckets linear slices —
// ~9% relative resolution — plus an underflow and an overflow bucket.
// record() is lock-free and allocation-free: frexp + two relaxed adds.
class Histogram {
 public:
  // Covers [2^kMinExp, 2^kMaxExp) ≈ [9.3e-10, 8.6e9): nanoseconds to
  // decades in seconds, bytes to gigabytes in sizes.
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -30;
  static constexpr int kMaxExp = 33;
  static constexpr size_t kBucketCount =
      static_cast<size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void record(double x);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double mean() const;
  // q in [0, 1]; cumulative bucket walk with linear interpolation inside
  // the landing bucket. Returns 0 when empty.
  double percentile(double q) const;
  // Upper bound of the highest occupied bucket (0 when empty) — a cheap
  // stand-in for the true maximum.
  double max_bound() const;

  // Bucket math, exposed for tests. Index 0 is underflow (x <= 0 or below
  // range), kBucketCount-1 is overflow.
  static size_t bucket_index(double x);
  static double bucket_lower(size_t idx);
  static double bucket_upper(size_t idx);

 private:
  std::atomic<uint64_t> buckets_[kBucketCount] = {};
  std::atomic<uint64_t> count_{0};
  // Sum accumulated as bit-cast double via CAS (atomic<double>::fetch_add
  // is not universally lock-free).
  std::atomic<uint64_t> sum_bits_{0};
};

// Owns counters and histograms, references gauges. Registration returns a
// stable handle (pointers never move after creation); re-registering a
// name returns the existing instance, so independent components can share
// one series.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);
  // Lazy gauge: `fn` runs at snapshot time on the snapshotting thread.
  // This is the absorption path for components that already count —
  // the callback reads their accessors instead of mirroring every
  // increment. Callbacks must therefore be safe to invoke from wherever
  // the harness snapshots (harnesses marshal cross-shard reads inside
  // the callback when needed). Re-registering a name replaces the fn.
  void gauge_fn(const std::string& name, std::function<double()> fn);

  struct Snapshot {
    // Sorted by name; histograms expanded to derived series.
    std::vector<std::pair<std::string, double>> values;
    double get(const std::string& name, double fallback = 0.0) const;
  };
  Snapshot snapshot() const;
  // "name value" lines, one per metric, sorted — the flight-recorder dump
  // format.
  std::string to_text() const;
  // Flat JSON object {"name": value, ...}, sorted keys, %.10g values.
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<double()>> gauges_;
};

}  // namespace roar
