#include "serve/slow_query_log.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace wsie::serve {

const char* RequestKindName(QueryEngine::Request::Kind kind) {
  using Kind = QueryEngine::Request::Kind;
  switch (kind) {
    case Kind::kLookup:
      return "lookup";
    case Kind::kPrefix:
      return "prefix";
    case Kind::kFrequency:
      return "freq";
    case Kind::kTopK:
      return "topk";
    case Kind::kCoOccurrence:
      return "cooc";
    case Kind::kSimilar:
      return "similar";
  }
  return "unknown";
}

SlowQueryLog::SlowQueryLog(SlowQueryOptions options)
    : top_k_(options.top_k < 1 ? 1 : options.top_k),
      initial_floor_ns_(options.floor_ns),
      floor_ns_(options.floor_ns) {
  entries_.reserve(top_k_);
  auto& registry = obs::MetricsRegistry::Global();
  recorded_ = registry.GetCounter("wsie.serve.slowlog.recorded");
  evicted_ = registry.GetCounter("wsie.serve.slowlog.evicted");
  floor_gauge_ = registry.GetGauge("wsie.serve.slowlog.floor_ns");
  floor_gauge_->Set(static_cast<double>(options.floor_ns));
}

void SlowQueryLog::Record(const QueryEngine::Request& request,
                          uint64_t latency_ns, bool sampled) {
  // Fast reject: the log is full of slower requests than this one.
  if (latency_ns < floor_ns_.load(std::memory_order_relaxed)) return;

  const bool frequency =
      request.kind == QueryEngine::Request::Kind::kFrequency;
  Entry entry;
  entry.kind = request.kind;
  entry.name = request.name;
  entry.name_b = request.name_b;
  entry.corpus = frequency ? request.corpus : request.filter.corpus;
  entry.type = frequency ? request.type : request.filter.type;
  entry.method = frequency ? request.method : request.filter.method;
  entry.limit = request.limit;
  entry.latency_ns = latency_ns;
  entry.sampled = sampled;
  entry.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() == top_k_) {
    size_t min_i = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].latency_ns < entries_[min_i].latency_ns) min_i = i;
    }
    if (latency_ns <= entries_[min_i].latency_ns) {
      // Raced past the relaxed floor; tighten it and drop the request.
      floor_ns_.store(entries_[min_i].latency_ns, std::memory_order_relaxed);
      return;
    }
    entries_[min_i] = std::move(entry);
    evicted_->Increment();
  } else {
    entries_.push_back(std::move(entry));
  }
  recorded_->Increment();
  if (entries_.size() == top_k_) {
    uint64_t floor = entries_[0].latency_ns;
    for (const Entry& e : entries_) floor = std::min(floor, e.latency_ns);
    floor_ns_.store(floor, std::memory_order_relaxed);
    floor_gauge_->Set(static_cast<double>(floor));
  }
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::TopByLatency() const {
  std::vector<Entry> top;
  {
    std::lock_guard<std::mutex> lock(mu_);
    top = entries_;
  }
  std::sort(top.begin(), top.end(), [](const Entry& a, const Entry& b) {
    if (a.latency_ns != b.latency_ns) return a.latency_ns > b.latency_ns;
    return a.seq < b.seq;
  });
  return top;
}

std::string SlowQueryLog::DumpJson() const {
  const std::vector<Entry> top = TopByLatency();
  std::string out = "{\"floor_ns\":" + std::to_string(floor_ns()) +
                    ",\"entries\":[";
  bool first = true;
  for (const Entry& e : top) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"kind\":\"");
    out.append(RequestKindName(e.kind));
    out.append("\",\"name\":");
    AppendJsonString(&out, e.name);
    out.append(",\"name_b\":");
    AppendJsonString(&out, e.name_b);
    out.append(",\"corpus\":" + std::to_string(e.corpus));
    out.append(",\"type\":" + std::to_string(e.type));
    out.append(",\"method\":" + std::to_string(e.method));
    out.append(",\"limit\":" + std::to_string(e.limit));
    out.append(",\"latency_ns\":" + std::to_string(e.latency_ns));
    out.append(",\"sampled\":");
    out.append(e.sampled ? "true" : "false");
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  floor_ns_.store(initial_floor_ns_, std::memory_order_relaxed);
  floor_gauge_->Set(static_cast<double>(initial_floor_ns_));
}

}  // namespace wsie::serve
