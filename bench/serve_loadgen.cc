// Closed-loop load generator for the serving stack: N client threads
// drive a Zipfian query mix (point lookup / prefix / top-k /
// co-occurrence) through the batched AdmissionQueue into the
// QueryEngine, each waiting for its response before issuing the next
// request. Throughput is counted at the clients; latency p50/p99 are
// read from the wsie.serve.request.latency_ns histogram — the same
// numbers the obs exporters ship — and optionally gated.
//
// Two modes:
//   time-based (default)  --seconds=N wall-clock window
//   fixed-ops ("smoke")   --ops=N per client: the request streams are
//                         deterministic (per-client seeded Rng over a
//                         frozen store), so the printed response digest
//                         is byte-stable across runs — scripts/
//                         serve_check.sh runs it twice and diffs.
//
// Flags: --clients=N --seconds=N --ops=N --terms=N --zipf=S --batch=N
//        --queue=N --workers=N --json=PATH --gate-p50-us=N --gate-p99-us=N
//        (gates default to 20ms/200ms; 0 disables)
//        --sample=N  deterministic 1-in-N per-request tracing + slow-query
//        log (default 1024; 0 disables) — sampled requests execute
//        individually under a trace span, and the latency gates run with
//        sampling ON, so the gate certifies the sampled configuration.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "serve/admission_queue.h"
#include "serve/query_engine.h"
#include "store/annotation_store.h"

namespace {

using namespace wsie;

struct Flags {
  size_t clients = 0;  // 0 = hardware_concurrency
  size_t seconds = 2;
  size_t ops = 0;  // 0 = time-based
  size_t terms = 2000;
  double zipf = 1.1;
  size_t batch = 32;
  size_t queue = 2048;
  size_t workers = 1;
  std::string json;
  double gate_p50_us = 20000.0;
  double gate_p99_us = 200000.0;
  size_t sample = 1024;  ///< 1-in-N trace sampling (0 = off)
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  auto value_of = [&](const char* arg, const char* name) -> const char* {
    const size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
      return arg + len + 1;
    }
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of(argv[i], "--clients")) {
      flags.clients = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(argv[i], "--seconds")) {
      flags.seconds = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(argv[i], "--ops")) {
      flags.ops = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(argv[i], "--terms")) {
      flags.terms = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(argv[i], "--zipf")) {
      flags.zipf = std::strtod(v, nullptr);
    } else if (const char* v = value_of(argv[i], "--batch")) {
      flags.batch = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(argv[i], "--queue")) {
      flags.queue = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(argv[i], "--workers")) {
      flags.workers = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(argv[i], "--json")) {
      flags.json = v;
    } else if (const char* v = value_of(argv[i], "--gate-p50-us")) {
      flags.gate_p50_us = std::strtod(v, nullptr);
    } else if (const char* v = value_of(argv[i], "--gate-p99-us")) {
      flags.gate_p99_us = std::strtod(v, nullptr);
    } else if (const char* v = value_of(argv[i], "--sample")) {
      flags.sample = std::strtoull(v, nullptr, 10);
    }
  }
  if (flags.clients == 0) {
    const size_t hw = std::thread::hardware_concurrency();
    flags.clients = hw > 0 ? hw : 1;
  }
  if (flags.terms < 10) flags.terms = 10;
  return flags;
}

std::string TermName(size_t rank) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "e%05zu", rank);
  return buf;
}

/// Seeds a deterministic multi-segment store: every term appears with a
/// rank-skewed posting count spread over corpora/types/methods, built as
/// four segments so cross-segment merge paths are exercised.
std::shared_ptr<store::AnnotationStore> SeedStore(const std::string& dir,
                                                  size_t terms) {
  std::filesystem::remove_all(dir);
  auto store_or = store::AnnotationStore::Open(dir);
  if (!store_or.ok()) return nullptr;
  auto annotations = *store_or;
  for (uint64_t seg = 0; seg < 4; ++seg) {
    store::SegmentBuilder builder;
    for (uint64_t t = seg; t < terms; t += 4) {
      const uint64_t reps = 1 + (t < 16 ? 16 - t : t % 3);
      for (uint64_t r = 0; r < reps; ++r) {
        store::Posting posting{t * 31 + r * 7,
                               static_cast<uint32_t>((t + r) % 11),
                               static_cast<uint32_t>(r * 5),
                               static_cast<uint32_t>(r * 5 + 4)};
        builder.Add(TermName(t), static_cast<uint8_t>(t % 3),
                    static_cast<uint8_t>(r % 3),
                    static_cast<uint8_t>((t + r) % 2), posting);
      }
    }
    builder.AddCorpusStats(static_cast<uint8_t>(seg % 3), 40, 1000, 38000);
    if (!annotations->Append(std::move(builder)).ok()) return nullptr;
  }
  return annotations;
}

uint64_t DigestResponse(uint64_t hash,
                        const serve::QueryEngine::Response& response) {
  using Kind = serve::QueryEngine::Request::Kind;
  switch (response.kind) {
    case Kind::kLookup: {
      const auto& r = response.lookup;
      hash = Fnv1aU64(r.found ? 1 : 0, hash);
      hash = Fnv1aU64(r.count, hash);
      hash = Fnv1aU64(r.docs, hash);
      for (const uint64_t n : r.per_corpus) hash = Fnv1aU64(n, hash);
      break;
    }
    case Kind::kPrefix:
      for (const std::string& name : response.names) {
        hash = Fnv1a(name, hash);
      }
      break;
    case Kind::kFrequency: {
      const auto& r = response.frequency;
      hash = Fnv1aU64(r.distinct_names, hash);
      hash = Fnv1aU64(r.annotations, hash);
      hash = Fnv1aU64(r.sentences, hash);
      uint64_t bits;
      std::memcpy(&bits, &r.per_1000_sentences, sizeof(bits));
      hash = Fnv1aU64(bits, hash);
      break;
    }
    case Kind::kTopK:
      for (const auto& entry : response.topk) {
        hash = Fnv1a(entry.name, hash);
        hash = Fnv1aU64(entry.count, hash);
      }
      break;
    case Kind::kCoOccurrence:
      hash = Fnv1aU64(response.cooccurrence.docs, hash);
      hash = Fnv1aU64(response.cooccurrence.sentences, hash);
      break;
    case Kind::kSimilar:
      hash = Fnv1aU64(response.similar.index_available ? 1 : 0, hash);
      hash = Fnv1aU64(response.similar.found ? 1 : 0, hash);
      for (const auto& hit : response.similar.neighbors) {
        hash = Fnv1a(hit.name, hash);
      }
      break;
  }
  return hash;
}

serve::QueryEngine::Request MakeRequest(Rng& rng, size_t terms, double s) {
  using Kind = serve::QueryEngine::Request::Kind;
  serve::QueryEngine::Request request;
  const uint64_t roll = rng.Uniform(100);
  const size_t rank = rng.Zipf(terms, s);
  if (roll < 60) {
    request.kind = Kind::kLookup;
    request.name = TermName(rank);
    if (roll < 10) request.filter.corpus = static_cast<int>(rng.Uniform(3));
  } else if (roll < 75) {
    request.kind = Kind::kPrefix;
    request.name = TermName(rank).substr(0, 3);
    request.limit = 20;
  } else if (roll < 85) {
    request.kind = Kind::kTopK;
    request.limit = 10;
    if (roll < 80) {
      request.filter.type = static_cast<int>(rng.Uniform(3));
    }
  } else {
    request.kind = Kind::kCoOccurrence;
    request.name = TermName(rank);
    request.name_b = TermName(rng.Zipf(terms, s));
  }
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  bench::PrintHeader("Closed-loop serving load generator",
                     "batched admission + epoch-pinned reads");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "wsie_serve_loadgen").string();
  auto annotations = SeedStore(dir, flags.terms);
  if (annotations == nullptr) {
    std::fprintf(stderr, "store seed failed\n");
    return 1;
  }

  obs::MetricsRegistry::Global().Reset();
  auto engine = std::make_shared<const serve::QueryEngine>(annotations);
  serve::AdmissionQueue::Options queue_options;
  queue_options.capacity = flags.queue;
  queue_options.batch_size = flags.batch;
  queue_options.workers = flags.workers;
  queue_options.trace_sample_every = flags.sample;
  queue_options.slow_log = std::make_shared<serve::SlowQueryLog>();
  serve::AdmissionQueue queue(engine, queue_options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ops{0};
  std::atomic<uint64_t> failures{0};
  std::vector<uint64_t> digests(flags.clients, 0);
  std::vector<uint64_t> ops_per_client(flags.clients, 0);

  std::vector<std::thread> clients;
  const Stopwatch window;
  for (size_t c = 0; c < flags.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0x5eed + c * 0x9e3779b9ULL);
      uint64_t digest = kFnv1aOffsetBasis;
      uint64_t ops = 0;
      while (flags.ops > 0 ? ops < flags.ops
                           : !stop.load(std::memory_order_relaxed)) {
        const serve::QueryEngine::Request request =
            MakeRequest(rng, flags.terms, flags.zipf);
        serve::QueryEngine::Response response;
        if (!queue.Submit(request, &response)) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        digest = DigestResponse(digest, response);
        ++ops;
      }
      digests[c] = digest;
      ops_per_client[c] = ops;
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }

  if (flags.ops == 0) {
    std::this_thread::sleep_for(std::chrono::seconds(flags.seconds));
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& client : clients) client.join();
  const double elapsed = window.ElapsedSeconds();
  queue.Stop();

  uint64_t combined_digest = kFnv1aOffsetBasis;
  for (const uint64_t d : digests) {
    combined_digest = Fnv1aU64(d, combined_digest);
  }

  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const obs::HistogramSnapshot* latency =
      snapshot.FindHistogram("wsie.serve.request.latency_ns");
  const double p50_us =
      latency != nullptr && latency->count > 0 ? latency->Quantile(0.5) / 1e3
                                               : 0.0;
  const double p99_us =
      latency != nullptr && latency->count > 0 ? latency->Quantile(0.99) / 1e3
                                               : 0.0;
  const double qps = static_cast<double>(total_ops.load()) / elapsed;

  std::printf("clients: %zu  batch: %zu  workers: %zu  terms: %zu  "
              "zipf: %.2f\n",
              flags.clients, flags.batch, flags.workers, flags.terms,
              flags.zipf);
  std::printf("ops: %llu in %.2f s  (%.0f QPS closed-loop)\n",
              static_cast<unsigned long long>(total_ops.load()), elapsed, qps);
  std::printf("request latency p50: %.1f us  p99: %.1f us  "
              "(wsie.serve.request.latency_ns)\n",
              p50_us, p99_us);
  std::printf("batches: %llu  mean batch: %.2f\n",
              static_cast<unsigned long long>(
                  snapshot.CounterValue("wsie.serve.admission.batches")),
              snapshot.CounterValue("wsie.serve.admission.batches") > 0
                  ? static_cast<double>(snapshot.CounterValue(
                        "wsie.serve.admission.enqueued")) /
                        static_cast<double>(snapshot.CounterValue(
                            "wsie.serve.admission.batches"))
                  : 0.0);
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(combined_digest));
  if (flags.sample > 0) {
    const auto top = queue_options.slow_log->TopByLatency();
    std::printf("sampling 1-in-%zu: %llu sampled requests; slowlog top-%zu "
                "(floor %.1f us)",
                flags.sample,
                static_cast<unsigned long long>(
                    snapshot.CounterValue("wsie.serve.sampled")),
                top.size(),
                static_cast<double>(queue_options.slow_log->floor_ns()) / 1e3);
    if (!top.empty()) {
      std::printf("; worst: %s \"%s\" %.1f us",
                  serve::RequestKindName(top.front().kind),
                  top.front().name.c_str(),
                  static_cast<double>(top.front().latency_ns) / 1e3);
    }
    std::printf("\n");
  }

  bool ok = failures.load() == 0 && total_ops.load() > 0;
  if (flags.gate_p50_us > 0 && p50_us > flags.gate_p50_us) {
    std::printf("GATE VIOLATED: p50 %.1f us > %.1f us\n", p50_us,
                flags.gate_p50_us);
    ok = false;
  }
  if (flags.gate_p99_us > 0 && p99_us > flags.gate_p99_us) {
    std::printf("GATE VIOLATED: p99 %.1f us > %.1f us\n", p99_us,
                flags.gate_p99_us);
    ok = false;
  }

  if (!flags.json.empty()) {
    std::ofstream out(flags.json);
    out << "{\"bench\":\"serve_loadgen\",\"clients\":" << flags.clients
        << ",\"ops\":" << total_ops.load() << ",\"qps\":" << qps
        << ",\"p50_us\":" << p50_us << ",\"p99_us\":" << p99_us
        << ",\"gates_ok\":" << (ok ? "true" : "false") << "}\n";
  }

  std::printf("\nClosed-loop load generation, gates: %s\n",
              ok ? "HOLD" : "VIOLATED");
  return ok ? 0 : 1;
}
