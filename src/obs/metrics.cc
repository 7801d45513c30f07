#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace wsie::obs {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Splits `name{labels}` into its base and label block ("" when unlabeled).
void SplitLabels(std::string_view name, std::string_view* base,
                 std::string_view* labels) {
  size_t brace = name.find('{');
  if (brace == std::string_view::npos) {
    *base = name;
    *labels = {};
    return;
  }
  *base = name.substr(0, brace);
  // Strip the surrounding braces; the tail "}" is re-added by the emitter.
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

std::vector<double> Ladder125(double lo, double hi) {
  std::vector<double> bounds;
  for (double decade = lo; decade <= hi; decade *= 10.0) {
    bounds.push_back(decade);
    if (decade * 2 <= hi) bounds.push_back(decade * 2);
    if (decade * 5 <= hi) bounds.push_back(decade * 5);
  }
  return bounds;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> LogSpacedBuckets(double lo, double hi, size_t count) {
  if (lo <= 0.0) lo = 1e-9;
  if (hi < lo) hi = lo;
  if (count < 2) count = 2;
  const double ratio = std::pow(hi / lo, 1.0 / static_cast<double>(count - 1));
  std::vector<double> bounds;
  bounds.reserve(count);
  double v = lo;
  for (size_t i = 0; i + 1 < count; ++i) {
    bounds.push_back(v);
    v *= ratio;
  }
  bounds.push_back(hi);  // exact top bound, immune to pow/mul drift
  return bounds;
}

const std::vector<double>& LogLatencyBucketsNs() {
  static const std::vector<double>* bounds =
      new std::vector<double>(LogSpacedBuckets(1e3, 1e11, 121));
  return *bounds;
}

const std::vector<double>& LatencyBucketsNs() {
  static const std::vector<double>* bounds =
      new std::vector<double>(Ladder125(1e3, 1e11));
  return *bounds;
}

const std::vector<double>& LatencyBucketsMs() {
  static const std::vector<double>* bounds =
      new std::vector<double>(Ladder125(0.1, 1e5));
  return *bounds;
}

const std::vector<double>& BytesBuckets() {
  static const std::vector<double>* bounds = [] {
    auto* b = new std::vector<double>();
    for (double v = 64; v <= double(1u << 30); v *= 4) b->push_back(v);
    return b;
  }();
  return *bounds;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    seen += bucket_counts[i];
    if (seen > rank) {
      if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      double lo = i == 0 ? 0.0 : bounds[i - 1];
      double hi = bounds[i];
      uint64_t in_bucket = bucket_counts[i];
      uint64_t below = seen - in_bucket;
      double frac = in_bucket == 0
                        ? 1.0
                        : static_cast<double>(rank - below + 1) /
                              static_cast<double>(in_bucket);
      return lo + (hi - lo) * frac;
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double MetricsSnapshot::GaugeValue(std::string_view name) const {
  for (const GaugeSnapshot& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterPrefixSum(std::string_view prefix) const {
  uint64_t total = 0;
  for (const CounterSnapshot& c : counters) {
    if (c.name.size() >= prefix.size() &&
        std::string_view(c.name).substr(0, prefix.size()) == prefix) {
      total += c.value;
    }
  }
  return total;
}

std::string WithLabel(std::string_view base, std::string_view key,
                      std::string_view value) {
  std::string name;
  name.reserve(base.size() + key.size() + value.size() + 5);
  name.append(base).append("{").append(key).append("=\"").append(value).append(
      "\"}");
  return name;
}

std::string WithLabels(std::string_view base, std::string_view key1,
                       std::string_view value1, std::string_view key2,
                       std::string_view value2) {
  std::string name;
  name.append(base).append("{").append(key1).append("=\"").append(value1);
  name.append("\",").append(key2).append("=\"").append(value2).append("\"}");
  return name;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Gauge>();
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = histograms_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Histogram>(bounds);
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.bounds = hist->bounds();
    h.bucket_counts = hist->BucketCounts();
    for (uint64_t c : h.bucket_counts) h.count += c;
    h.sum = hist->Sum();
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

std::string MetricsRegistry::DumpPrometheusText() const {
  MetricsSnapshot snap = Snapshot();
  std::string out;
  for (const CounterSnapshot& c : snap.counters) {
    out += c.name;
    out += ' ';
    out += std::to_string(c.value);
    out += '\n';
  }
  for (const GaugeSnapshot& g : snap.gauges) {
    out += g.name;
    out += ' ';
    out += FormatDouble(g.value);
    out += '\n';
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    std::string_view base, labels;
    SplitLabels(h.name, &base, &labels);
    auto series = [&](std::string_view suffix, std::string_view extra_label,
                      const std::string& value) {
      out.append(base).append(suffix);
      if (!labels.empty() || !extra_label.empty()) {
        out += '{';
        out += labels;
        if (!labels.empty() && !extra_label.empty()) out += ',';
        out += extra_label;
        out += '}';
      }
      out += ' ';
      out += value;
      out += '\n';
    };
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.bucket_counts[i];
      series("_bucket", "le=\"" + FormatDouble(h.bounds[i]) + "\"",
             std::to_string(cumulative));
    }
    series("_bucket", "le=\"+Inf\"", std::to_string(h.count));
    series("_count", "", std::to_string(h.count));
    series("_sum", "", FormatDouble(h.sum));
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  MetricsSnapshot snap = Snapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const CounterSnapshot& c : snap.counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, c.name);
    out += ':';
    out += std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSnapshot& g : snap.gauges) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, g.name);
    out += ':';
    out += FormatDouble(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramSnapshot& h : snap.histograms) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, h.name);
    out += ":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += FormatDouble(h.sum);
    out += ",\"buckets\":[";
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"le\":";
      out += i < h.bounds.size() ? FormatDouble(h.bounds[i]) : "\"+Inf\"";
      out += ",\"count\":";
      out += std::to_string(h.bucket_counts[i]);
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace wsie::obs
