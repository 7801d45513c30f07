#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/string_util.h"

namespace wsie::obs {
namespace {

void CopyTruncated(char* dst, size_t cap, std::string_view src) {
  size_t n = std::min(cap - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::mutex& ContextMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

TraceContext& ContextSlot() {
  static TraceContext* context = new TraceContext();
  return *context;
}

}  // namespace

TraceContext CurrentTraceContext() {
  std::lock_guard<std::mutex> lock(ContextMutex());
  return ContextSlot();
}

void SetTraceContext(const TraceContext& context) {
  std::lock_guard<std::mutex> lock(ContextMutex());
  ContextSlot() = context;
}

namespace {
uint64_t NewId() {
  static std::atomic<uint64_t> next{1};
  uint64_t id = 0;
  while (id == 0) {
    const uint64_t n = next.fetch_add(1, std::memory_order_relaxed);
    id = SplitMix64(n ^ SplitMix64(static_cast<uint64_t>(::getpid()) ^
                                   (static_cast<uint64_t>(
                                        std::chrono::steady_clock::now()
                                            .time_since_epoch()
                                            .count())
                                    << 20)));
  }
  return id;
}
}  // namespace

uint64_t NewTraceId() { return NewId(); }
uint64_t NewSpanId() { return NewId(); }

std::string TraceContextArgs(const TraceContext& context) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "trace=%llx parent=%llx",
                static_cast<unsigned long long>(context.trace_id),
                static_cast<unsigned long long>(context.span_id));
  return buf;
}

void AppendChromeEvent(std::string* out, bool* first, const TraceEvent& event,
                       int pid, int tid, int64_t offset_ns) {
  if (!*first) *out += ',';
  *first = false;
  *out += "{\"name\":";
  AppendJsonString(out, event.name);
  *out += ",\"cat\":\"wsie\",\"ph\":\"";
  *out += event.phase;
  char buf[80];
  // Chrome trace timestamps are microseconds; keep ns resolution. The
  // offset re-bases a remote recorder's clock into the coordinator's.
  const int64_t ts_ns =
      std::max<int64_t>(0, static_cast<int64_t>(event.ts_ns) + offset_ns);
  std::snprintf(buf, sizeof(buf), "\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d",
                static_cast<double>(ts_ns) / 1000.0, pid, tid);
  *out += buf;
  if (event.args[0] != '\0') {
    *out += ",\"args\":{\"detail\":";
    AppendJsonString(out, event.args);
    *out += '}';
  }
  *out += '}';
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed
  return *recorder;
}

namespace {
uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

TraceRecorder::TraceRecorder()
    : id_(NextRecorderId()),
      dropped_counter_(
          MetricsRegistry::Global().GetCounter("wsie.obs.trace.dropped")),
      epoch_(std::chrono::steady_clock::now()) {}

void TraceRecorder::SetRingCapacity(size_t events) {
  ring_capacity_.store(std::max<size_t>(events, 16),
                       std::memory_order_relaxed);
}

TraceRecorder::ThreadBuffer* TraceRecorder::ThisThreadBuffer() {
  // Per-thread cache of the (recorder id, buffer) pair: one recorder in
  // practice (Global()), so this is an integer compare on the hot path.
  // Keyed by the process-unique id (not the address, which the stack can
  // recycle across short-lived recorders in tests) and holding the buffer
  // by shared_ptr, so a cache hit can never dangle.
  static thread_local uint64_t cached_owner_id = 0;
  static thread_local std::shared_ptr<ThreadBuffer> cached_buffer;
  if (cached_owner_id == id_) return cached_buffer.get();
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_shared<ThreadBuffer>(
      ring_capacity_.load(std::memory_order_relaxed), next_tid_++);
  buffers_.push_back(buffer);
  cached_owner_id = id_;
  cached_buffer = buffer;
  return cached_buffer.get();
}

uint64_t TraceRecorder::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceRecorder::Push(char phase, std::string_view name,
                         std::string_view args) {
  ThreadBuffer* buffer = ThisThreadBuffer();
  const uint64_t ts = NowNs();
  std::lock_guard<std::mutex> lock(buffer->mu);
  TraceEvent& event = buffer->ring[buffer->next];
  event.ts_ns = ts;
  event.phase = phase;
  CopyTruncated(event.name, TraceEvent::kNameCap, name);
  CopyTruncated(event.args, TraceEvent::kArgsCap, args);
  buffer->next = (buffer->next + 1) % buffer->ring.size();
  if (buffer->count < buffer->ring.size()) {
    ++buffer->count;
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);  // overwrote the oldest
    dropped_counter_->Increment();
  }
}

void TraceRecorder::Begin(std::string_view name, std::string_view args) {
  if (!enabled()) return;
  Push('B', name, args);
}

void TraceRecorder::End() {
  Push('E', {}, {});
}

size_t TraceRecorder::buffered() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->count;
  }
  return total;
}

std::vector<TraceRecorder::ThreadStream> TraceRecorder::ExportBalanced()
    const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  std::vector<ThreadStream> streams;
  streams.reserve(buffers.size());
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    ThreadStream stream;
    stream.tid = buffer->tid;
    stream.events.reserve(buffer->count);
    // Chronological order: the ring holds `count` events ending at `next`.
    size_t start = (buffer->next + buffer->ring.size() - buffer->count) %
                   buffer->ring.size();
    // Re-balance: drop 'E' events whose 'B' was overwritten (depth 0),
    // close still-open 'B' events with synthetic 'E's at the last ts.
    int depth = 0;
    uint64_t last_ts = 0;
    for (size_t i = 0; i < buffer->count; ++i) {
      const TraceEvent& event = buffer->ring[(start + i) % buffer->ring.size()];
      if (event.phase == 'E') {
        if (depth == 0) continue;
        --depth;
      } else {
        ++depth;
      }
      last_ts = std::max(last_ts, event.ts_ns);
      stream.events.push_back(event);
    }
    for (; depth > 0; --depth) {
      TraceEvent closer;
      closer.phase = 'E';
      closer.ts_ns = last_ts;
      stream.events.push_back(closer);
    }
    if (!stream.events.empty()) streams.push_back(std::move(stream));
  }
  return streams;
}

std::string TraceRecorder::ToChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const ThreadStream& stream : ExportBalanced()) {
    for (const TraceEvent& event : stream.events) {
      AppendChromeEvent(&out, &first, event, /*pid=*/1, stream.tid,
                        /*offset_ns=*/0);
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::Internal("cannot open trace file " + path);
  std::string json = ToChromeTraceJson();
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  file.flush();
  if (!file) return Status::Internal("short write to trace file " + path);
  return Status::OK();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->next = 0;
    buffer->count = 0;
  }
  dropped_.store(0, std::memory_order_relaxed);
}

void ResetForkedProcessObs() {
  MetricsRegistry::Global().Reset();
  TraceRecorder::Global().ResetForFork();
}

}  // namespace wsie::obs
