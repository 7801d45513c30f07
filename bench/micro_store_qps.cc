// Query throughput of the serving layer under an actively compacting
// store: one writer keeps appending segments, the background compactor
// keeps folding them, and N reader threads hammer the query engine with a
// mixed workload. Snapshot isolation means not a single query may fail or
// observe a regression while segments are swapped underneath. QPS and
// latency quantiles are read from the wsie.serve.query.latency_ns
// histogram — the same numbers the obs exporters ship.
//
// --dop=N sets the reader count (default: the machine's hardware
// concurrency); the measurement window is a fixed 2 s. --json=PATH writes
// the BENCH_micro_store_qps.json summary elsewhere (none suppresses it).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "serve/query_engine.h"
#include "store/annotation_store.h"

namespace {

// Long enough for dozens of background compactions at a 3 ms append cadence,
// short enough to keep the bench sweep quick.
constexpr std::chrono::seconds kWindow{2};

}  // namespace

int main(int argc, char** argv) {
  using namespace wsie;
  bench::BenchFlags defaults;
  defaults.dop = std::max(1u, std::thread::hardware_concurrency());
  const bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv, defaults);
  const size_t num_readers = flags.dop;
  bench::PrintHeader("Store query throughput under active compaction",
                     "serving-layer microbench");

  std::string dir =
      (std::filesystem::temp_directory_path() / "wsie_micro_store_qps")
          .string();
  std::filesystem::remove_all(dir);
  auto store_or = store::AnnotationStore::Open(dir);
  if (!store_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 store_or.status().ToString().c_str());
    return 1;
  }
  auto store = *store_or;

  // Seed segment so readers always have a hit target.
  auto make_segment = [](uint64_t round) {
    store::SegmentBuilder builder;
    for (uint64_t t = 0; t < 50; ++t) {
      store::Posting posting{round * 50 + t, static_cast<uint32_t>(t % 7),
                             static_cast<uint32_t>(t), static_cast<uint32_t>(t + 4)};
      builder.Add("gene" + std::to_string((round * 13 + t) % 400), 0, 0,
                  t % 2 == 0 ? 0 : 1, posting);
      builder.Add("anchor", 0, 0, 0, posting);
    }
    builder.AddCorpusStats(0, 1, 25, 900);
    return builder;
  };
  if (!store->Append(make_segment(0)).ok()) return 1;

  obs::MetricsRegistry::Global().Reset();
  serve::QueryEngine engine(store);
  store::BackgroundCompactor compactor(store, /*min_segments=*/4,
                                       std::chrono::milliseconds(2));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_queries{0};
  std::atomic<uint64_t> failed_queries{0};

  std::thread writer([&] {
    uint64_t round = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!store->Append(make_segment(round++)).ok()) ++failed_queries;
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  std::vector<std::thread> readers;
  std::vector<uint64_t> per_thread_queries(num_readers, 0);
  for (size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      uint64_t queries = 0, failures = 0, last_anchor = 0, i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++i;
        switch (i % 4) {
          case 0: {
            auto lookup = engine.Lookup("anchor");
            // "anchor" only ever gains postings; going backwards would
            // mean a torn segment-set install.
            if (!lookup.found || lookup.count < last_anchor) ++failures;
            last_anchor = lookup.count;
            break;
          }
          case 1:
            if (engine.TopK(5).empty()) ++failures;
            break;
          case 2:
            if (engine.CorpusFrequency(0, 0, 0).sentences == 0) ++failures;
            break;
          default:
            engine.PrefixScan("gene1", 10);
            if ((r & 1) != 0) engine.CoOccurrence("anchor", "gene7");
            break;
        }
        ++queries;
      }
      per_thread_queries[r] = queries;
      total_queries.fetch_add(queries);
      failed_queries.fetch_add(failures);
    });
  }

  const Stopwatch window;
  std::this_thread::sleep_for(kWindow);
  stop = true;
  writer.join();
  for (auto& reader : readers) reader.join();
  compactor.Stop();
  const double elapsed = window.ElapsedSeconds();

  auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const obs::HistogramSnapshot* latency =
      snapshot.FindHistogram("wsie.serve.query.latency_ns");
  double qps = static_cast<double>(total_queries.load()) / elapsed;
  std::printf("readers: %zu, window: %.1f s, compactions: %llu, "
              "live segments at end: %zu\n",
              num_readers, elapsed,
              static_cast<unsigned long long>(compactor.compactions_run()),
              store->num_segments());
  std::printf("queries: %llu  (%.0f QPS aggregate)\n",
              static_cast<unsigned long long>(total_queries.load()), qps);
  for (size_t r = 0; r < num_readers; ++r) {
    std::printf("  reader %zu: %llu queries  (%.0f QPS)\n", r,
                static_cast<unsigned long long>(per_thread_queries[r]),
                static_cast<double>(per_thread_queries[r]) / elapsed);
  }
  if (latency != nullptr && latency->count > 0) {
    std::printf("latency p50: %.1f us   p99: %.1f us   (n=%llu from "
                "wsie.serve.query.latency_ns)\n",
                latency->Quantile(0.5) / 1e3, latency->Quantile(0.99) / 1e3,
                static_cast<unsigned long long>(latency->count));
  }
  std::printf("failed queries: %llu\n",
              static_cast<unsigned long long>(failed_queries.load()));
  bool ok = failed_queries.load() == 0 && total_queries.load() > 0 &&
            compactor.compactions_run() > 0;
  std::printf("\nConcurrent serving under compaction, zero failures: %s\n",
              ok ? "HOLDS" : "VIOLATED");

  bench::JsonSummary summary("micro_store_qps", flags);
  summary.Set("readers", static_cast<uint64_t>(num_readers));
  summary.Set("window_seconds", elapsed);
  summary.Set("queries", total_queries.load());
  summary.Set("qps", qps);
  summary.Set("failed_queries", failed_queries.load());
  summary.Set("compactions", compactor.compactions_run());
  if (latency != nullptr && latency->count > 0) {
    summary.Set("latency_p50_us", latency->Quantile(0.5) / 1e3);
    summary.Set("latency_p99_us", latency->Quantile(0.99) / 1e3);
  }
  summary.Set("pass", ok);
  summary.Write();
  return ok ? 0 : 1;
}
