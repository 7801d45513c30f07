#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace wsie::perfbench {

namespace {

/// 1-based nearest rank of percentile p over n samples: ceil(p/100 * n),
/// computed in integer arithmetic on p scaled by 1000 so 99.9 is exact.
size_t Rank(size_t n, double p) {
  const auto scaled = static_cast<unsigned long long>(std::llround(p * 1000.0));
  const unsigned long long num = scaled * n;
  size_t rank = static_cast<size_t>((num + 100000 - 1) / 100000);
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double p) {
  return sorted[Rank(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

double TailPercentile(size_t n) {
  double best = 0.0;
  for (double p : kPercentileLadder) {
    if (SamplesBeyond(n, p) >= kMinBeyondTail) best = p;
  }
  return best;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TimingSummary Summarize(std::vector<double> values) {
  TimingSummary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.n = values.size();
  s.median = Median(values);
  s.max = values.back();
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.tail_pct = TailPercentile(s.n);
  s.tail = s.tail_pct > 0 ? NearestRank(values, s.tail_pct) : s.max;
  return s;
}

std::string TailLabel(const TimingSummary& summary) {
  if (summary.tail_pct <= 0) return "max";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", summary.tail_pct);
  return buf;
}

}  // namespace wsie::perfbench
