// Process-wide metrics registry (ROADMAP item 5).
//
// Everything here is built for a hot path that never reads its own
// instruments: writes are single relaxed atomic RMWs (or plain stores),
// there are no locks after registration, and instrument pointers stay
// valid for the registry's lifetime, so call sites hoist the lookup out
// of their loops. Scrapes (Prometheus text or JSON) take the registry
// mutex only to walk the family index; they read the live atomics
// without stopping writers, so a scrape is a consistent-enough snapshot
// rather than a linearizable one — the standard Prometheus contract.
//
// Histograms are log2-bucketed: bucket i counts observations with
// value < 2^(i+1), covering [1, 2^31) in 32 buckets plus a +Inf bucket.
// Quantiles interpolate within the winning bucket, so p99 error is
// bounded by the bucket's width (a factor of 2 worst case) — adequate
// for latency triage, cheap enough for the ingest path.
#ifndef ZSTREAM_OBS_METRICS_H_
#define ZSTREAM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"

namespace zstream::obs {

/// Monotonic wall clock in nanoseconds — the time base for every
/// duration metric (per-node eval time, detection latency, slow-event
/// thresholds).
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Sorted (key, value) pairs identifying one series within a family.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotone counter; Inc is one relaxed fetch_add.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Overwrites the absolute value — for mirroring a monotone counter
  /// maintained elsewhere (shard atomics, connection tallies) into the
  /// registry at scrape time. Callers must preserve monotonicity.
  void Store(uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief Settable instantaneous value (queue depth, buffer bytes).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Lock-free log2-bucketed histogram.
///
/// Values are dimensionless uint64s; the owning family's `scale` maps
/// them to Prometheus base units at exposition time (e.g. record
/// nanoseconds, scale = 1e-9 to expose seconds).
class Histogram {
 public:
  static constexpr int kNumBuckets = 32;  // plus the implicit +Inf bucket

  /// Records `n` observations of `value` (one set of atomic updates,
  /// however large `n` is).
  void Observe(uint64_t value, uint64_t n = 1) {
    buckets_[BucketOf(value)].fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(value * n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Index of the bucket counting `value`: smallest i with
  /// value < 2^(i+1); values >= 2^32 land in the last bucket.
  static int BucketOf(uint64_t value);

  /// Exclusive upper bound of bucket i (2^(i+1)); the last bucket
  /// reports UINT64_MAX and renders as le="+Inf".
  static uint64_t UpperBound(int i);

  /// \brief Point-in-time copy (reads the live atomics, relaxed).
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kNumBuckets> buckets{};

    /// Quantile estimate in raw (unscaled) units, interpolating
    /// linearly within the winning bucket. Returns 0 when empty.
    double Quantile(double q) const;
  };
  Snapshot snapshot() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

enum class MetricType : char { kCounter, kGauge, kHistogram };

/// \brief Named, labeled instrument index with dual exposition.
///
/// GetX registers (or finds) the series under (name, labels) and
/// returns a pointer that remains valid until the registry is
/// destroyed; instruments live in deques, so registration never moves
/// them. Re-registering with a different type or help string is an
/// error in spirit; the first registration wins.
class Registry {
 public:
  Registry() = default;
  ZS_DISALLOW_COPY_AND_ASSIGN(Registry);

  Counter* GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  /// `scale` converts raw observed values to Prometheus base units at
  /// exposition time (both text and JSON).
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          const std::string& help = "", double scale = 1.0);

  /// Prometheus text exposition format 0.0.4 (families sorted by name,
  /// series by label string, `# HELP` / `# TYPE` once per family).
  std::string RenderPrometheus() const;

  /// Stable JSON: {"name": {"type": ..., "help": ..., "series": [
  /// {"labels": {...}, "value": N} | {..., "count", "sum", "p50",
  /// "p95", "p99"}]}} with the same deterministic ordering.
  std::string RenderJson() const;

  /// Drops every series, in any family, whose labels include
  /// (`key`, `value`) — for series whose subject is gone (a retired
  /// query). Pointers handed out for them stay valid but are no longer
  /// rendered; the instruments' storage is not reclaimed. A later Get
  /// with the same labels registers a fresh, zeroed series. Returns the
  /// number of series removed.
  size_t RemoveSeriesLabeled(const std::string& key,
                             const std::string& value);

  /// The process-wide registry used by layers with no better home for
  /// their counters (planner, verifier, adaptive controller).
  static Registry& Default();

 private:
  struct Series {
    Labels labels;
    std::string label_key;  // canonical serialized labels (sort key)
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    double scale = 1.0;
    std::map<std::string, Series> series;  // keyed by label_key
  };

  Series* GetSeries(const std::string& name, const Labels& labels,
                    const std::string& help, MetricType type, double scale);

  mutable zs::Mutex mu_;
  std::map<std::string, Family> families_ ZS_GUARDED_BY(mu_);
  // Instrument storage: deques never relocate elements, so pointers
  // handed out under mu_ stay valid without further locking (the
  // instruments themselves are relaxed atomics, deliberately unguarded).
  std::deque<Counter> counters_ ZS_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ ZS_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ ZS_GUARDED_BY(mu_);
};

/// Canonical `{a="b",c="d"}` rendering ("" when empty) used for both
/// sort keys and Prometheus output; values are escaped per exposition
/// rules (backslash, double-quote, newline).
std::string RenderLabels(const Labels& labels);

}  // namespace zstream::obs

#endif  // ZSTREAM_OBS_METRICS_H_
