// Semantic retrieval over the annotation store: feature-hashed embeddings
// + a Vamana-style ANN graph, built from the store's term union and served
// at snapshot isolation through the admission queue.
//
// Gates (exit 1 on violation):
//   - recall@10 >= 0.95 against exact brute-force over the float matrix
//   - the index is byte-deterministic: rebuilding from the same names and
//     config reproduces the published container bit for bit
//   - /similar-equivalent requests through the admission queue all succeed
//     with the index available
// Reports QPS and p50/p99 latency from wsie.vec.query.latency_ns — the
// same histogram the /metrics exporter ships — plus the int8-quantization
// memory footprint against the float matrix.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "serve/admission_queue.h"
#include "serve/query_engine.h"
#include "store/annotation_store.h"
#include "vec/ann_index.h"
#include "vec/distance.h"

int main(int argc, char** argv) {
  using namespace wsie;
  bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv);
  bench::PrintHeader("Semantic retrieval: ANN index over the entity store",
                     "web-scale IE serving extension");
  bench::JsonSummary summary("fig7_semantic", flags);

  bench::BenchEnv env = bench::MakeBenchEnv();
  std::string store_dir =
      (std::filesystem::temp_directory_path() / "wsie_fig7_semantic_store")
          .string();
  std::filesystem::remove_all(store_dir);
  auto store_or = store::AnnotationStore::Open(store_dir);
  if (!store_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 store_or.status().ToString().c_str());
    return 1;
  }
  auto store = *store_or;

  const corpus::CorpusKind kinds[] = {
      corpus::CorpusKind::kRelevantWeb, corpus::CorpusKind::kIrrelevantWeb,
      corpus::CorpusKind::kMedline, corpus::CorpusKind::kPmc};
  for (auto kind : kinds) {
    bench::AnalyzeCorpusIntoStore(env, kind, store.get());
  }
  if (!store->Compact().ok()) return 1;

  const obs::MetricsSnapshot before_build = bench::SnapshotRegistry();
  Status built = store->BuildVectorIndex();
  if (!built.ok()) {
    std::fprintf(stderr, "vector index build failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }
  const double build_seconds =
      bench::WallSecondsSince(before_build, "wsie.vec.build.wall_ns");

  auto snapshot = store->snapshot();
  if (snapshot.vectors == nullptr) {
    std::fprintf(stderr, "no vector index published\n");
    return 1;
  }
  const vec::VecIndex& index = *snapshot.vectors;
  const size_t n = index.size();
  std::printf("\nindexed entities: %zu   dim: %u   degree<=%u   "
              "build: %.2f s   SIMD distance kernels: %s\n",
              n, index.dim(), index.config().max_degree, build_seconds,
              vec::VecSimdActive() ? "active" : "scalar");

  // ----------------------------------------------------------- recall@10
  // Every indexed entity queries with its own stored embedding; the ANN
  // pool must reproduce the brute-force float top-10 (both rank on exact
  // float distance with id tie-breaks, so intersection is well-defined).
  const size_t k = 10;
  const size_t query_count = std::min<size_t>(n, 2000);
  uint64_t hits = 0, possible = 0, total_hops = 0;
  for (size_t q = 0; q < query_count; ++q) {
    vec::VecIndex::SearchStats stats;
    const auto ann = index.Search(index.vector(q), k, 0, &stats);
    const auto exact = index.SearchExact(index.vector(q), k);
    total_hops += stats.hops;
    possible += exact.size();
    for (const auto& truth : exact) {
      for (const auto& candidate : ann) {
        if (candidate.id == truth.id) {
          ++hits;
          break;
        }
      }
    }
  }
  const double recall =
      possible == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(possible);
  std::printf("recall@10 over %zu queries: %.4f   (mean hops %.1f)\n",
              query_count, recall,
              query_count == 0 ? 0.0
                               : static_cast<double>(total_hops) /
                                     static_cast<double>(query_count));

  // -------------------------------------------------------- determinism
  // Rebuilding from the same (names, config, id) must reproduce the
  // published container byte for byte — the invariant the compactor's
  // rebuild-on-merge relies on.
  bool deterministic = false;
  {
    auto rebuilt_or =
        vec::VecIndex::Build(index.names(), index.config(), index.id());
    if (rebuilt_or.ok()) {
      deterministic = rebuilt_or->Encode() == index.Encode();
    }
  }
  std::printf("rebuild byte-identical to published index: %s\n",
              deterministic ? "EXACT" : "MISMATCH");

  // ------------------------------------------- serve-path QPS / latency
  obs::MetricsRegistry::Global().Reset();
  auto engine = std::make_shared<serve::QueryEngine>(store);
  serve::AdmissionQueue::Options queue_options;
  queue_options.workers = 2;
  auto queue = std::make_shared<serve::AdmissionQueue>(engine, queue_options);

  const size_t client_threads = std::max<size_t>(2, flags.dop / 2);
  const size_t requests_per_thread = 2000;
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> unavailable{0};
  const Stopwatch serve_window;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < client_threads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < requests_per_thread; ++i) {
        serve::QueryEngine::Request request;
        request.kind = serve::QueryEngine::Request::Kind::kSimilar;
        request.name = index.name((t * requests_per_thread + i) % n);
        request.limit = k;
        serve::QueryEngine::Response response;
        if (!queue->Submit(request, &response)) {
          ++failures;
          continue;
        }
        if (!response.similar.index_available) ++unavailable;
        if (response.similar.neighbors.empty()) ++failures;
      }
    });
  }
  for (auto& client : clients) client.join();
  const double serve_seconds = serve_window.ElapsedSeconds();
  queue->Stop();

  const uint64_t total_requests = client_threads * requests_per_thread;
  const double qps = static_cast<double>(total_requests) / serve_seconds;
  auto metrics = obs::MetricsRegistry::Global().Snapshot();
  const obs::HistogramSnapshot* latency =
      metrics.FindHistogram("wsie.vec.query.latency_ns");
  double p50_us = 0.0, p99_us = 0.0;
  if (latency != nullptr && latency->count > 0) {
    p50_us = latency->Quantile(0.5) / 1e3;
    p99_us = latency->Quantile(0.99) / 1e3;
  }
  std::printf("\nserve path (admission queue, %zu clients): %llu similar "
              "queries in %.2f s = %.0f QPS\n",
              client_threads, static_cast<unsigned long long>(total_requests),
              serve_seconds, qps);
  std::printf("latency p50: %.1f us   p99: %.1f us   "
              "(wsie.vec.query.latency_ns, n=%llu)\n",
              p50_us, p99_us,
              latency == nullptr
                  ? 0ull
                  : static_cast<unsigned long long>(latency->count));

  // -------------------------------------------------- memory accounting
  const double quant_share =
      index.float_bytes() == 0
          ? 0.0
          : static_cast<double>(index.quantized_bytes()) /
                static_cast<double>(index.float_bytes());
  std::printf("\nmemory: float matrix %.1f KiB, int8 codes %.1f KiB "
              "(%.0f%% of float), graph %.1f KiB, file %.1f KiB\n",
              index.float_bytes() / 1024.0, index.quantized_bytes() / 1024.0,
              100.0 * quant_share, index.graph_bytes() / 1024.0,
              index.encoded_bytes() / 1024.0);

  const bool recall_ok = recall >= 0.95;
  const bool serve_ok = failures.load() == 0 && unavailable.load() == 0;
  std::printf("\nrecall@10 >= 0.95: %s\n", recall_ok ? "HOLDS" : "VIOLATED");
  std::printf("all admission-queue similar queries served: %s\n",
              serve_ok ? "HOLDS" : "VIOLATED");

  summary.Set("indexed_entities", static_cast<uint64_t>(n));
  summary.Set("dim", static_cast<uint64_t>(index.dim()));
  summary.Set("build_seconds", build_seconds);
  summary.Set("recall_at_10", recall);
  summary.Set("recall_queries", static_cast<uint64_t>(query_count));
  summary.Set("deterministic_rebuild", deterministic);
  summary.Set("qps", qps);
  summary.Set("latency_p50_us", p50_us);
  summary.Set("latency_p99_us", p99_us);
  summary.Set("float_bytes", static_cast<uint64_t>(index.float_bytes()));
  summary.Set("quantized_bytes",
              static_cast<uint64_t>(index.quantized_bytes()));
  summary.Set("graph_bytes", static_cast<uint64_t>(index.graph_bytes()));
  summary.Set("encoded_bytes", static_cast<uint64_t>(index.encoded_bytes()));
  summary.Set("simd", vec::VecSimdActive());
  summary.Set("gates_pass", recall_ok && deterministic && serve_ok);
  if (!summary.Write()) return 1;

  return (recall_ok && deterministic && serve_ok) ? 0 : 1;
}
