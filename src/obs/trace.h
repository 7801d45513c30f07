#ifndef WSIE_OBS_TRACE_H_
#define WSIE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace wsie::obs {

/// One span boundary. Names and args are stored inline (truncated) so a
/// trace event never allocates on the recording path.
struct TraceEvent {
  static constexpr size_t kNameCap = 48;
  static constexpr size_t kArgsCap = 48;
  uint64_t ts_ns = 0;
  char phase = 'B';  ///< 'B' (begin) or 'E' (end)
  char name[kNameCap] = {};
  char args[kArgsCap] = {};
};

// ---------------------------------------------------------------------------
// Distributed trace context. One (trace_id, span_id) pair per process — a
// distributed run has a single coordinator-side root, workers inherit the
// pair across fork or adopt it from the first transport frame they see, and
// root spans embed it in their args so a stitched multi-pid trace keeps the
// causal parent links without needing Chrome flow events (the validator
// accepts only B/E phases).

struct TraceContext {
  uint64_t trace_id = 0;  ///< one id per distributed run, 0 = none
  uint64_t span_id = 0;   ///< the parent span on the other side of the hop
};

/// The process-wide current context (one distributed run at a time).
TraceContext CurrentTraceContext();
void SetTraceContext(const TraceContext& context);

/// Fresh nonzero ids (splitmix of a process counter, the pid, and the
/// clock) — unique within a run's process tree.
uint64_t NewTraceId();
uint64_t NewSpanId();

/// Formats "trace=<hex> parent=<hex>" for embedding in root-span args.
std::string TraceContextArgs(const TraceContext& context);

/// Appends one event as a Chrome trace_event JSON object (comma-separated
/// via `*first`), re-based by `offset_ns` and attributed to (pid, tid) —
/// the shared emitter under ToChromeTraceJson and the multi-process
/// stitcher.
void AppendChromeEvent(std::string* out, bool* first, const TraceEvent& event,
                       int pid, int tid, int64_t offset_ns);

/// Records span begin/end events into per-thread ring buffers and
/// serializes them as Chrome `trace_event` JSON — loadable in
/// `chrome://tracing` or https://ui.perfetto.dev.
///
/// Recording is wait-free against other threads (each thread owns its
/// buffer; a short per-buffer mutex orders the writer against the rare
/// serializer). When a ring fills, the oldest events are overwritten and
/// counted in dropped(); serialization re-balances each thread's stream
/// (orphan 'E' events whose 'B' was overwritten are discarded, still-open
/// 'B' events get a synthetic 'E'), so the emitted JSON always has matched
/// begin/end pairs per thread.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Ring capacity, in events per thread (default 65536). Applies to
  /// buffers created after the call.
  void SetRingCapacity(size_t events);

  void Begin(std::string_view name, std::string_view args = {});
  void End();

  /// Events overwritten because a ring wrapped.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Events currently buffered, across threads.
  size_t buffered() const;

  /// Nanoseconds since this recorder's epoch — the timestamp domain of
  /// every recorded event; the clock re-basing handshake ships this.
  uint64_t NowNs() const;

  /// One thread's buffered events, re-balanced (orphan 'E's dropped,
  /// still-open 'B's closed with a synthetic 'E' at the last timestamp)
  /// so every exported stream has matched pairs in timestamp order.
  struct ThreadStream {
    int tid = 0;
    std::vector<TraceEvent> events;
  };
  std::vector<ThreadStream> ExportBalanced() const;

  /// Serializes all buffered events as one Chrome trace JSON object:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Discards all buffered events (buffers stay registered).
  void Clear();

  /// Child-side post-fork reset: discards the rings and drop count the
  /// child inherited from its parent so a forked worker reports only its
  /// own spans. The inherited trace context is kept — it is the causal
  /// link back to the coordinator, not accumulated state.
  void ResetForFork() { Clear(); }

 private:
  struct ThreadBuffer {
    explicit ThreadBuffer(size_t cap, int tid_in) : ring(cap), tid(tid_in) {}
    std::mutex mu;
    std::vector<TraceEvent> ring;
    size_t next = 0;    ///< write position
    size_t count = 0;   ///< events held (<= ring.size())
    int tid = 0;
  };

  ThreadBuffer* ThisThreadBuffer();
  void Push(char phase, std::string_view name, std::string_view args);

  const uint64_t id_;  ///< process-unique; keys the per-thread buffer cache
  std::atomic<bool> enabled_{false};
  Counter* dropped_counter_;  ///< wsie.obs.trace.dropped
  std::atomic<uint64_t> dropped_{0};
  std::atomic<size_t> ring_capacity_{65536};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  int next_tid_ = 1;
};

/// RAII span: Begin at construction, End at destruction. The begin decision
/// is latched, so a span that started recording always closes even if
/// tracing is disabled mid-span.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::string_view args = {}) {
    if (TraceRecorder::Global().enabled()) {
      recording_ = true;
      TraceRecorder::Global().Begin(name, args);
    }
  }
  ~ScopedSpan() {
    if (recording_) TraceRecorder::Global().End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool recording_ = false;
};

/// Everything a forked worker must shed before doing its own work: the
/// global registry's inherited counts and the global recorder's inherited
/// rings. Called in the child immediately after fork, before any metric or
/// span of its own — the fork-safety contract the multiprocess shard
/// runtime relies on (a parent-side count must never reappear in a
/// worker's shipped snapshot).
void ResetForkedProcessObs();

}  // namespace wsie::obs

/// Span macro: declares a ScopedSpan local with a line-unique name.
#define WSIE_OBS_CONCAT_(a, b) a##b
#define WSIE_OBS_CONCAT(a, b) WSIE_OBS_CONCAT_(a, b)
#define WSIE_TRACE_SPAN(...) \
  ::wsie::obs::ScopedSpan WSIE_OBS_CONCAT(wsie_span_, __LINE__)(__VA_ARGS__)

#endif  // WSIE_OBS_TRACE_H_
