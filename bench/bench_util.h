#ifndef WSIE_BENCH_BENCH_UTIL_H_
#define WSIE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis_context.h"
#include "core/analytics.h"
#include "core/pipeline.h"
#include "corpus/text_generator.h"
#include "ml/stats.h"
#include "obs/metrics.h"
#include "store/annotation_store.h"

namespace wsie::bench {

/// Default per-corpus document counts for the table/figure harnesses.
/// Paper scale is ~4.2M / 17.7M / 21.7M / 0.25M documents; these defaults
/// keep every bench binary in the seconds range while preserving the
/// relative corpus sizes' orderings. Override via the WSIE_BENCH_SCALE
/// environment variable (a multiplier).
struct BenchScale {
  size_t relevant_docs = 50;
  size_t irrelevant_docs = 90;
  size_t medline_docs = 250;
  size_t pmc_docs = 35;
  size_t crf_training_sentences = 700;
  size_t pos_training_sentences = 1000;
};

/// Reads WSIE_BENCH_SCALE (default 1.0) and scales the defaults.
BenchScale ReadBenchScale();

/// Command-line knobs for the scale benches, so fig4/fig5 sweep without
/// recompiling: --dop=N sets the executor degree of parallelism and
/// --shards=1,2,4,8 the shard counts fig5 runs. --profile[=path] arms the
/// SIGPROF sampling profiler for the whole run and writes folded stacks
/// (flamegraph.pl input) at exit, default ./profile.folded. Unknown
/// arguments are rejected with usage on stderr (exit 2), so a typo cannot
/// silently run the defaults.
struct BenchFlags {
  size_t dop = 8;
  std::vector<size_t> shards = {1, 2, 4, 8};
  bool profile = false;
  std::string profile_path = "profile.folded";
  /// --json=PATH overrides the default BENCH_<name>.json summary path;
  /// --json=none suppresses the file.
  std::string json_path;
};

/// Parses --dop / --shards over `defaults`.
BenchFlags ParseBenchFlags(int argc, char** argv, BenchFlags defaults = {});

/// Shared state for the analysis benches: one trained context plus the four
/// generated corpora.
struct BenchEnv {
  std::shared_ptr<const core::AnalysisContext> context;
  std::map<corpus::CorpusKind, std::vector<corpus::Document>> corpora;
  BenchScale scale;
};

/// Builds the context (training the taggers) and generates all four corpora.
BenchEnv MakeBenchEnv(BenchScale scale = ReadBenchScale());

/// Runs the full analysis flow over one corpus and returns its analysis.
core::CorpusAnalysis AnalyzeCorpus(const BenchEnv& env,
                                   corpus::CorpusKind kind,
                                   size_t dop = 2);

/// AnalyzeCorpus with a StoreSink attached: the same flow run also streams
/// its annotations into `annotations` as one new segment, so benches can
/// verify the persisted store reproduces the in-memory analysis exactly.
core::CorpusAnalysis AnalyzeCorpusIntoStore(const BenchEnv& env,
                                            corpus::CorpusKind kind,
                                            store::AnnotationStore* annotations,
                                            size_t dop = 2);

// --- Repeated measurement. Every timed bench arm goes through
// RunRepetitions: one discarded warm-up run of each arm, then `reps`
// repetitions, each running every arm once — in list order on even
// repetitions, reversed on odd ones — so drift and order bias fall on all
// arms alike instead of on whichever block ran during a busy spell.

/// One measured configuration. `run` performs one execution and returns
/// its sample: wall seconds, CPU seconds, or a registry reading.
struct Arm {
  std::string name;
  std::function<double()> run;
};

/// One arm's samples in repetition order — sample i of every arm comes
/// from repetition i, so paired ratios line up — and their summary.
struct ArmSamples {
  std::string name;
  std::vector<double> samples;
  ml::Descriptive stats;

  double iqr() const { return stats.p75 - stats.p25; }
};

/// Warm-up, then `reps` interleaved repetitions of `arms` (see above).
/// The warm-up runs the arms in list order.
std::vector<ArmSamples> RunRepetitions(int reps, const std::vector<Arm>& arms);

/// Median over repetitions of numerator.samples[i] / denominator.samples[i].
double MedianPairedRatio(const ArmSamples& numerator,
                         const ArmSamples& denominator);

/// Prints one "name  min  median  IQR" row per arm; `unit` labels the
/// samples.
void PrintArms(const std::vector<ArmSamples>& arms, const char* unit);

/// One flat JSON summary per bench run, written to BENCH_<name>.json in
/// the working directory (the path every fig bench shares with CI scripts)
/// unless --json=PATH redirects it or --json=none suppresses it. Keys keep
/// insertion order; values are numbers, booleans, or escaped strings.
class JsonSummary {
 public:
  /// `name` is the bench's short name ("fig7_semantic" -> file
  /// BENCH_fig7_semantic.json); `flags` supplies the --json override.
  JsonSummary(std::string name, const BenchFlags& flags);

  void Set(const std::string& key, double value);
  void Set(const std::string& key, uint64_t value);
  void Set(const std::string& key, int64_t value);
  void Set(const std::string& key, bool value);
  void Set(const std::string& key, const std::string& value);
  /// Writes `<key>_min`, `<key>_median` and `<key>_iqr` of the arm's samples.
  void Set(const std::string& key, const ArmSamples& arm);

  /// Writes the file (no-op under --json=none) and reports the path on
  /// stdout. Returns false (after printing to stderr) when the write fails.
  bool Write() const;

 private:
  void SetRaw(const std::string& key, std::string encoded);

  std::string path_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Prints a rule line and a centered title.
void PrintHeader(const std::string& title, const std::string& paper_ref);

/// Prints "  paper: <a>   measured: <b>" comparison lines.
void PrintCompare(const std::string& what, const std::string& paper,
                  const std::string& measured);

// --- Registry-backed timing. Benches read timings from the observability
// registry where a metric exists, instead of wrapping every run in a local
// Stopwatch.

/// Snapshot of the process-wide registry (shorthand).
obs::MetricsSnapshot SnapshotRegistry();

/// Seconds added to the nanosecond histogram `name` (e.g.
/// wsie.dataflow.run.wall_ns, wsie.vec.build.wall_ns) since `before`: the
/// growth of its sum. Exits the bench (status 1) when the histogram did not
/// grow, e.g. because metrics are disabled.
double WallSecondsSince(const obs::MetricsSnapshot& before,
                        const std::string& name);

/// Prints a Fig. 3-style per-operator runtime table straight from the
/// registry's wsie.dataflow.operator.* counters (share of total process
/// time, records in/out). `min_share` drops sub-threshold operators.
void PrintRegistryOperatorRuntimes(const obs::MetricsSnapshot& snapshot,
                                   double min_share = 0.0);

}  // namespace wsie::bench

#endif  // WSIE_BENCH_BENCH_UTIL_H_
