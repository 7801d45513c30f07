#ifndef WSIEBENCH_STATS_H_
#define WSIEBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace wsie::perfbench {

/// Percentiles the benchmark reports, lowest first. A timing is reported as
/// its median plus the highest of these that still has at least
/// kMinBeyondTail samples above it.
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 99.0};
inline constexpr size_t kMinBeyondTail = 10;

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `sorted` must be ascending and non-empty.
double NearestRank(const std::vector<double>& sorted, double p);

/// Number of samples strictly beyond the nearest-rank p-th percentile's
/// rank: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// The highest ladder percentile with at least kMinBeyondTail samples
/// beyond it, or 0 when even the median has fewer (n < 20).
double TailPercentile(size_t n);

/// Median (mean of the two middle values for even n); 0 when empty.
double Median(std::vector<double> values);

/// A timing distribution summarised by the reporting rule above.
struct TimingSummary {
  size_t n = 0;
  double median = 0.0;
  /// The ladder percentile chosen by TailPercentile (0 when n < 20; the
  /// tail then falls back to the maximum so it is always defined).
  double tail_pct = 0.0;
  double tail = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Summarises `values` (any order). All fields are 0 for an empty input.
TimingSummary Summarize(std::vector<double> values);

/// "p99" / "p50" / "max" label for a summary's tail.
std::string TailLabel(const TimingSummary& summary);

}  // namespace wsie::perfbench

#endif  // WSIEBENCH_STATS_H_
