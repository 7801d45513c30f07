#ifndef WSIEBENCH_WORKLOADS_H_
#define WSIEBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "span_trace.h"
#include "stats.h"

namespace wsie::perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where traces and pass logs go, relative to the working directory.
  std::string out_dir = ".bench_out";
  /// Scratch space for on-disk stores; removed when the run ends.
  std::string work_dir;
  /// Fetch threads and DoP: the host's core count.
  size_t threads = 1;
};

/// Times a workload reports as its end-to-end metrics (untraced runs).
struct EndToEnd {
  double setup_s = 0.0;       ///< median of the set-up repetitions
  double units_per_s = 0.0;   ///< pages / tokens / reads per second
  TimingSummary op_us;        ///< latency of one unit operation
  double out_mb_per_s = 0.0;  ///< output MB per second of work
};

/// What one run reports: the oracle verdict, operation counts, end-to-end
/// metrics (untraced) and per-layer metrics (traced).
class Report {
 public:
  /// Records an oracle: a false `ok` marks the run incorrect.
  void Check(bool ok, const std::string& what);
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Sets a per-layer metric; the name must be one the benchmark declares.
  void SetLayer(const std::string& name, double value);
  /// Sets the layer-share rows from a traced phase's table.
  void SetLayerTable(const LayerTable& table, double tracing_overhead_frac);

  EndToEnd e2e;

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, double>& layers() const { return layers_; }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> layers_;
};

/// The per-layer metrics every traced run prints, with their units, in
/// output order. Metrics of a layer a workload leaves idle read 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Layers of the layer table, in print order.
const std::vector<std::string>& TableLayers();

int RunCrawl(const Options& options, Report* report);
int RunAnalyze(const Options& options, Report* report);
int RunServeRw(const Options& options, Report* report);

// ----------------------------------------------------------------- helpers

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `setup` `reps` times and returns the median wall seconds. The last
/// repetition's state is what the workload keeps.
double MedianSetupSeconds(int reps, const std::function<void()>& setup);

/// Prints the layer table for one traced phase to stderr.
void PrintLayerTable(const std::string& workload, const LayerTable& table,
                     double tracing_overhead_frac);

/// Writes the drained spans of a traced run as a Chrome trace under
/// options.out_dir and reports the path on stderr.
void WriteTrace(const Options& options, const std::vector<SpanRecord>& spans);

}  // namespace wsie::perfbench

#endif  // WSIEBENCH_WORKLOADS_H_
