#ifndef WSIEBENCH_SPAN_TRACE_H_
#define WSIEBENCH_SPAN_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wsie::perfbench {

/// One finished span. Times are nanoseconds on the steady clock, relative
/// to the recorder's epoch. `parent` is 0 for a root span; `request` is the
/// id shared by every span of one request (0 when the span belongs to no
/// request).
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

/// The layer a span belongs to: its name up to the first '.'.
std::string_view LayerOf(std::string_view span_name);

/// Self time of every span, in the order given: its duration minus the part
/// of its interval covered by the union of its direct children (children
/// may nest, overlap each other, or run on other threads; only the covered
/// part of the parent's own interval is subtracted). Spans whose parent is
/// absent from `spans` count as roots.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// In-memory span recorder. Spans go to per-thread buffers (no lock on the
/// recording path) and are collected by Drain() after the traced phase;
/// nothing is written while the benchmark measures.
class SpanTrace {
 public:
  static SpanTrace& Global();

  void SetEnabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NewRequestId() { return next_request_.fetch_add(1) + 1; }
  uint64_t NewSpanId() { return next_span_.fetch_add(1) + 1; }
  int64_t NowNs() const;

  void Record(SpanRecord record);

  /// Moves every recorded span out, ordered by (start, id). Call only while
  /// no thread is recording.
  std::vector<SpanRecord> Drain();

 private:
  struct ThreadBuffer {
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
  };
  ThreadBuffer* LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_request_{0};
  std::atomic<uint64_t> next_span_{0};
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::mutex mu_;  ///< guards buffers_
  std::vector<ThreadBuffer*> buffers_;
};

/// RAII span. A span opened on a thread becomes the parent of later spans
/// opened on the same thread until it closes; a span for work handed to
/// another thread passes its parent and request explicitly. No-op (and no
/// clock read) when the recorder is disabled.
class Span {
 public:
  explicit Span(std::string_view name, uint64_t request = 0);
  Span(std::string_view name, uint64_t parent, uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }
  uint64_t request() const { return record_.request; }

 private:
  void Open(std::string_view name, uint64_t parent, uint64_t request);

  bool active_ = false;
  SpanRecord record_;
  uint64_t saved_current_ = 0;
  uint64_t saved_request_ = 0;
};

/// Writes spans as a Chrome trace-event JSON array (complete "X" events
/// with the span id, parent and request in args). Returns false on an I/O
/// error.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans);

/// Per-layer attribution of one traced phase.
struct LayerTable {
  /// Wall time of the phase (the root span's duration).
  double wall_s = 0.0;
  /// Self time per layer, seconds (thread-seconds when layers run on
  /// several threads at once).
  std::map<std::string, double> self_s;
  /// Root-span self time: phase time no named span covers.
  double unattributed_s = 0.0;

  /// Moves `seconds` of `from`'s self time to the layers in `shares`
  /// (layer -> seconds); what `from` keeps is its time minus the moved sum.
  void Reattribute(const std::string& from,
                   const std::map<std::string, double>& shares);
};

/// Builds the table for the phase rooted at span `root_id`: every
/// descendant's self time is charged to its layer, the root's to
/// `unattributed_s`.
LayerTable BuildLayerTable(const std::vector<SpanRecord>& spans,
                           uint64_t root_id);

}  // namespace wsie::perfbench

#endif  // WSIEBENCH_SPAN_TRACE_H_
