#include "span_trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace wsie::perfbench {

namespace {

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string_view LayerOf(std::string_view span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> child_intervals(
      spans.size());
  for (const SpanRecord& span : spans) {
    auto it = index_of.find(span.parent);
    if (span.parent == 0 || it == index_of.end()) continue;
    const SpanRecord& parent = spans[it->second];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) child_intervals[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = child_intervals[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

SpanTrace& SpanTrace::Global() {
  static SpanTrace* trace = new SpanTrace();  // outlives every thread
  return *trace;
}

int64_t SpanTrace::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanTrace::ThreadBuffer* SpanTrace::LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    // Buffers are owned by the recorder and never freed: a thread may exit
    // before Drain() collects its spans.
    buffer = new ThreadBuffer();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = static_cast<uint32_t>(buffers_.size() + 1);
    buffers_.push_back(buffer);
  }
  return buffer;
}

void SpanTrace::Record(SpanRecord record) {
  ThreadBuffer* buffer = LocalBuffer();
  record.thread = buffer->thread;
  buffer->spans.push_back(std::move(record));
}

std::vector<SpanRecord> SpanTrace::Drain() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadBuffer* buffer : buffers_) {
    std::move(buffer->spans.begin(), buffer->spans.end(),
              std::back_inserter(all));
    buffer->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

Span::Span(std::string_view name, uint64_t request) {
  if (!SpanTrace::Global().enabled()) return;
  Open(name, t_current_span, request != 0 ? request : t_current_request);
}

Span::Span(std::string_view name, uint64_t parent, uint64_t request) {
  if (!SpanTrace::Global().enabled()) return;
  Open(name, parent, request);
}

void Span::Open(std::string_view name, uint64_t parent, uint64_t request) {
  SpanTrace& trace = SpanTrace::Global();
  active_ = true;
  record_.name = std::string(name);
  record_.id = trace.NewSpanId();
  record_.parent = parent;
  record_.request = request;
  saved_current_ = t_current_span;
  saved_request_ = t_current_request;
  t_current_span = record_.id;
  t_current_request = request;
  record_.start_ns = trace.NowNs();
}

Span::~Span() {
  if (!active_) return;
  SpanTrace& trace = SpanTrace::Global();
  record_.end_ns = trace.NowNs();
  t_current_span = saved_current_;
  t_current_request = saved_request_;
  trace.Record(std::move(record_));
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}%s\n",
                 JsonEscape(s.name).c_str(),
                 JsonEscape(LayerOf(s.name)).c_str(), s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

void LayerTable::Reattribute(const std::string& from,
                             const std::map<std::string, double>& shares) {
  for (const auto& [layer, seconds] : shares) {
    self_s[from] -= seconds;
    self_s[layer] += seconds;
  }
}

LayerTable BuildLayerTable(const std::vector<SpanRecord>& spans,
                           uint64_t root_id) {
  std::unordered_map<uint64_t, uint64_t> parent_of;
  for (const SpanRecord& s : spans) parent_of[s.id] = s.parent;
  // Memoised "is a descendant of root (or root itself)".
  std::unordered_map<uint64_t, bool> in_phase;
  in_phase[root_id] = true;
  auto belongs = [&](uint64_t id) {
    std::vector<uint64_t> chain;
    bool result = false;
    while (true) {
      auto known = in_phase.find(id);
      if (known != in_phase.end()) {
        result = known->second;
        break;
      }
      chain.push_back(id);
      auto up = parent_of.find(id);
      if (up == parent_of.end() || up->second == 0) break;
      id = up->second;
    }
    for (uint64_t c : chain) in_phase[c] = result;
    return result;
  };

  LayerTable table;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (!belongs(s.id)) continue;
    const double seconds = static_cast<double>(self[i]) / 1e9;
    const std::string_view layer = LayerOf(s.name);
    if (layer == "root") {
      table.unattributed_s += seconds;
    } else {
      table.self_s[std::string(layer)] += seconds;
    }
    if (s.id == root_id) {
      table.wall_s = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
  }
  return table;
}

}  // namespace wsie::perfbench
