// Write-path throughput: partitioned parallel compaction merge (MB/s) and
// batched morsel-parallel Vamana build (wall seconds), serial schedule vs
// parallel at 1..8 worker threads over the same inputs.
//
// Two gates, both asserted (non-zero exit on failure):
//   - byte identity: at EVERY thread count the parallel merge's encoded
//     segment and the parallel build's encoded index equal the serial
//     outputs bit for bit — the determinism contract behind the speedups;
//   - speedup: >= 3x at 8 workers for both stages, enforced only when the
//     host has >= 8 hardware threads (the same single-core fallback fig5
//     documents: on smaller hosts the parallel schedule degenerates to the
//     serial one plus morsel bookkeeping, so the gate would measure the
//     machine, not the code).
//
// Timing: bench::RunRepetitions — one discarded warm-up per arm, then
// interleaved repetitions (7 for the merge, 3 for the build); speedups are
// median paired ratios serial/parallel. Emits BENCH_micro_ingest.json with
// min/median/IQR wall seconds per arm, the speedups and the gate verdicts.
// --json=PATH / --json=none as everywhere else.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "store/parallel_merge.h"
#include "store/segment.h"
#include "vec/ann_index.h"

namespace {

using wsie::Rng;
using wsie::Stopwatch;
using wsie::ThreadPool;

std::shared_ptr<const wsie::store::Segment> RandomSegment(Rng* rng,
                                                          uint64_t id,
                                                          size_t vocabulary,
                                                          size_t num_terms) {
  wsie::store::SegmentBuilder builder;
  for (size_t t = 0; t < num_terms; ++t) {
    const std::string name =
        "entity-" + std::to_string(rng->Uniform(vocabulary));
    const size_t postings = 1 + rng->Uniform(6);
    for (size_t p = 0; p < postings; ++p) {
      const auto begin = static_cast<uint32_t>(rng->Uniform(4000));
      builder.Add(name, static_cast<uint8_t>(rng->Uniform(4)),
                  static_cast<uint8_t>(rng->Uniform(3)),
                  static_cast<uint8_t>(rng->Uniform(2)),
                  wsie::store::Posting{rng->Uniform(2000),
                                       static_cast<uint32_t>(rng->Uniform(40)),
                                       begin, begin + 6});
    }
  }
  builder.AddCorpusStats(0, num_terms, 2 * num_terms, 120 * num_terms);
  auto segment_or = builder.Finish(id);
  if (!segment_or.ok()) {
    std::fprintf(stderr, "segment build failed: %s\n",
                 segment_or.status().ToString().c_str());
    std::exit(1);
  }
  return std::make_shared<const wsie::store::Segment>(std::move(*segment_or));
}

double Mb(size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

}  // namespace

int main(int argc, char** argv) {
  using namespace wsie;
  const bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv);
  bench::PrintHeader("Parallel write path: compaction merge + Vamana build",
                     "ingest microbench");
  bench::JsonSummary summary("micro_ingest", flags);

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const bool enforce_speedup = cores >= 8;
  std::printf("host: %u core(s) -> 3x@8 speedup gate %s\n\n", cores,
              enforce_speedup ? "ENFORCED" : "documented only (fallback)");
  summary.Set("cores", static_cast<uint64_t>(cores));
  summary.Set("speedup_gate_enforced", enforce_speedup);

  // ---------------------------------------------------- compaction merge
  Rng rng(20260808);
  std::vector<std::shared_ptr<const store::Segment>> segments;
  size_t input_bytes = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    segments.push_back(RandomSegment(&rng, i + 1, 6000, 4000));
    input_bytes += segments.back()->encoded_bytes();
  }
  std::printf("compaction inputs: %zu segments, %.1f MB encoded\n",
              segments.size(), Mb(input_bytes));

  // Each arm times one build, then checks its encoded bytes against the
  // serial reference. The warm-up runs the arms in list order, so the
  // serial arm (first) sets the reference before any parallel arm is
  // checked. All arms share one 8-thread pool; `threads` caps how many of
  // its workers (caller included) a run uses.
  ThreadPool pool(8);
  const size_t kThreadCounts[] = {1, 2, 4, 8};
  bool bytes_identical = true;
  auto arm = [&](std::string name, std::string* reference, auto build) {
    return bench::Arm{std::move(name), [&bytes_identical, reference, build] {
      Stopwatch watch;
      auto built_or = build();
      const double wall_s = watch.ElapsedSeconds();
      if (!built_or.ok()) std::exit(1);
      std::string bytes = built_or->Encode();
      if (reference->empty()) {
        *reference = std::move(bytes);
      } else {
        bytes_identical = bytes_identical && bytes == *reference;
      }
      return wall_s;
    }};
  };

  // Prints a stage's arms with their median paired speedup over its serial
  // arm (first) and, for `mb` > 0, median MB/s; writes them to the
  // summary; returns the x8 speedup.
  auto report = [&](const std::vector<bench::ArmSamples>& arms, double mb) {
    bench::PrintArms(arms, "wall seconds");
    for (const bench::ArmSamples& a : arms) {
      summary.Set(a.name + "_seconds", a);
      std::printf("  %-22s speedup %4.2fx (median paired)", a.name.c_str(),
                  bench::MedianPairedRatio(arms[0], a));
      if (mb > 0) std::printf("  %7.1f MB/s", mb / a.stats.median);
      std::printf("\n");
    }
    return bench::MedianPairedRatio(arms[0], arms.back());
  };

  std::string serial_bytes;
  std::vector<bench::Arm> merge_arms = {
      arm("merge_serial", &serial_bytes, [&] {
        store::SegmentBuilder builder;
        for (const auto& segment : segments) builder.MergeSegment(*segment);
        return builder.Finish(100);
      })};
  for (const size_t threads : kThreadCounts) {
    merge_arms.push_back(
        arm("merge_parallel_" + std::to_string(threads), &serial_bytes,
            [&, threads] {
              return store::MergeSegmentsParallel(segments, 100, &pool,
                                                  threads);
            }));
  }
  constexpr int kMergeReps = 7;
  summary.Set("merge_input_mb", Mb(input_bytes));
  const double merge_speedup =
      report(bench::RunRepetitions(kMergeReps, merge_arms), Mb(input_bytes));
  summary.Set("merge_speedup_8", merge_speedup);

  // ------------------------------------------------------- Vamana build
  std::vector<std::string> names;
  names.reserve(4000);
  for (size_t i = 0; i < 4000; ++i) {
    names.push_back("term-" + std::to_string(rng.Uniform(1u << 30)));
  }
  vec::VecIndexConfig config;
  config.embedder.dim = 64;
  config.max_degree = 24;
  config.build_beam = 48;
  std::printf("\nANN build inputs: %zu names, dim %u, R %u, batch %u\n",
              names.size(), config.embedder.dim, config.max_degree,
              config.build_batch);

  // The one-worker build is the serial arm; 2/4/8 workers are parallel.
  std::string serial_index_bytes;
  std::vector<bench::Arm> ann_arms;
  for (const size_t threads : kThreadCounts) {
    ann_arms.push_back(arm(
        threads == 1 ? std::string("ann_serial")
                     : "ann_parallel_" + std::to_string(threads),
        &serial_index_bytes, [&, threads] {
          return vec::VecIndex::Build(names, config, 1,
                                      vec::VecBuildOptions{&pool, threads});
        }));
  }
  constexpr int kAnnReps = 3;
  const double ann_speedup =
      report(bench::RunRepetitions(kAnnReps, ann_arms), 0.0);
  summary.Set("ann_speedup_8", ann_speedup);
  summary.Set("bytes_identical", bytes_identical);

  // ----------------------------------------------------------- verdicts
  bool ok = bytes_identical;
  if (!bytes_identical) {
    std::fprintf(stderr, "FAIL: parallel output differs from serial\n");
  }
  if (enforce_speedup) {
    if (merge_speedup < 3.0) {
      std::fprintf(stderr, "FAIL: merge speedup %.2fx < 3x at 8 workers\n",
                   merge_speedup);
      ok = false;
    }
    if (ann_speedup < 3.0) {
      std::fprintf(stderr, "FAIL: ANN build speedup %.2fx < 3x at 8 workers\n",
                   ann_speedup);
      ok = false;
    }
  }
  std::printf("\nresult: %s (merge %.2fx, ann %.2fx, bytes %s)\n",
              ok ? "PASS" : "FAIL", merge_speedup, ann_speedup,
              bytes_identical ? "identical" : "DIFFER");
  summary.Set("pass", ok);
  summary.Write();
  return ok ? 0 : 1;
}
