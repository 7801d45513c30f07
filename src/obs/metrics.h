#ifndef WSIE_OBS_METRICS_H_
#define WSIE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace wsie::obs {

// ---------------------------------------------------------------------------
// Runtime enable. The hot-path predicate is one relaxed atomic load plus a
// branch.

namespace internal {
inline std::atomic<bool> g_metrics_enabled{true};
}  // namespace internal

inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace internal {
/// Per-thread shard index, hashed once per thread. Sharding spreads
/// concurrent writers of one counter across cache lines so a hot counter
/// never becomes a coherence ping-pong point.
inline size_t ThisThreadShard() {
  static thread_local const size_t shard =
      std::hash<std::thread::id>()(std::this_thread::get_id());
  return shard;
}

/// fetch_add for atomic<double> via CAS (portable across libstdc++ versions).
inline void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}
}  // namespace internal

// ---------------------------------------------------------------------------
// Metric primitives. All are lock-free on the write path (relaxed atomics)
// and owned by the registry — handles returned by MetricsRegistry are stable
// for the life of the process, so callers hoist the name lookup out of hot
// loops and keep the raw pointer.

/// A monotonically increasing counter, sharded across cache lines.
class Counter {
 public:
  void Add(uint64_t n) {
    if (!MetricsEnabled()) return;
    shards_[internal::ThisThreadShard() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over shards. Concurrent Add() calls may or may not be visible —
  /// each shard is read atomically, so the result is never torn.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_;
};

/// A last-write-wins instantaneous value (frontier size, harvest rate).
class Gauge {
 public:
  void Set(double value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (!MetricsEnabled()) return;
    internal::AtomicAddDouble(&value_, delta);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations v with
/// bounds[i-1] < v <= bounds[i] (Prometheus `le` semantics); one implicit
/// overflow bucket catches v > bounds.back(). The observation count is
/// derived from the buckets at read time, so a snapshot's count always
/// equals the sum of its bucket counts.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value) {
    if (!MetricsEnabled()) return;
    size_t lo = 0, hi = bounds_.size();  // branchless-ish upper_bound
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (value <= bounds_[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    counts_[lo].fetch_add(1, std::memory_order_relaxed);
    internal::AtomicAddDouble(&sum_, value);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (size bounds()+1; last is the overflow bucket).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const;
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<double> sum_{0.0};
};

/// `count` log-spaced (geometric) bucket bounds from `lo` to `hi`, both
/// inclusive. Denser than the 1-2-5 ladder: with ~15 buckets per decade the
/// bucket ratio is ~1.17, so linear interpolation inside a bucket bounds
/// the p50/p99 estimate error below 10% of the exact sample quantile —
/// latency gates built on Quantile() stop being bucket-artifact sensitive.
std::vector<double> LogSpacedBuckets(double lo, double hi, size_t count);

/// Log-spaced latency bounds in nanoseconds, 1 µs .. 100 s, 15 per decade.
const std::vector<double>& LogLatencyBucketsNs();

/// Default latency buckets in nanoseconds: a 1-2-5 ladder from 1 µs to 100 s.
const std::vector<double>& LatencyBucketsNs();
/// Default latency buckets in milliseconds: 1-2-5 ladder, 0.1 ms to 100 s.
const std::vector<double>& LatencyBucketsMs();
/// Default size buckets in bytes: powers of four from 64 B to 1 GiB.
const std::vector<double>& BytesBuckets();

// ---------------------------------------------------------------------------
// Snapshots: a point-in-time copy of every registered metric. Each value is
// read atomically; counters are monotone, so two successive snapshots are
// ordered per metric, and a histogram snapshot's count equals the sum of
// its bucket counts by construction.

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;  ///< size bounds+1 (overflow last)
  uint64_t count = 0;
  double sum = 0.0;

  /// Bucket-interpolated quantile estimate, q in [0, 1]. Returns 0 when
  /// empty; overflow-bucket observations report the top bound.
  double Quantile(double q) const;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Value of counter `name`, 0 when absent.
  uint64_t CounterValue(std::string_view name) const;
  /// Value of gauge `name`, 0.0 when absent.
  double GaugeValue(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
  /// Sum of the values of every counter whose name starts with `prefix`.
  uint64_t CounterPrefixSum(std::string_view prefix) const;
};

// ---------------------------------------------------------------------------
// The registry.

/// Formats `base{key="value"}` — the labeled-metric naming convention. The
/// exporters understand the embedded label block and re-emit it in
/// Prometheus exposition syntax.
std::string WithLabel(std::string_view base, std::string_view key,
                      std::string_view value);
std::string WithLabels(std::string_view base, std::string_view key1,
                       std::string_view value1, std::string_view key2,
                       std::string_view value2);

/// Process-wide metric registry. Registration (name lookup) takes a mutex
/// and returns a stable handle; all value mutation is lock-free. Metric
/// names follow `wsie.<subsystem>.<name>`, optionally with a `{k="v"}`
/// label block (see WithLabel).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// The returned pointer is valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` applies only on first registration of `name`.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds = LatencyBucketsNs());

  /// Point-in-time copy of every metric, in sorted-name order.
  MetricsSnapshot Snapshot() const;

  /// Prometheus text exposition format (histograms as cumulative
  /// `_bucket{le=...}` series plus `_count`/`_sum`).
  std::string DumpPrometheusText() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string DumpJson() const;

  /// Zeroes every value; registrations and handles stay valid. For tests
  /// and the overhead microbench.
  void Reset();

  size_t num_metrics() const;

 private:
  mutable std::mutex mu_;
  // std::map keeps dumps and snapshots in deterministic sorted order.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace wsie::obs

#endif  // WSIE_OBS_METRICS_H_
