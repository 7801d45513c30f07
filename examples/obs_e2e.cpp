// Observability end-to-end: run the full pipeline — synthetic web with
// injected faults -> focused crawl (retries, circuit breaker, checkpoints)
// -> analysis data flow (sentences -> linguistics -> NER) — with tracing
// enabled, then export and validate the two observability artifacts:
//
//   1. a Chrome trace_event JSON (loadable in chrome://tracing or
//      https://ui.perfetto.dev), validated in-process with
//      obs::ValidateChromeTrace, and
//   2. a Prometheus text dump of the whole metrics registry.
//
// Exits non-zero if the trace fails validation or an expected metric
// family is missing. scripts/obs_check.sh drives this binary.
//
// Usage: ./build/examples/obs_e2e [trace.json] [metrics.prom] [fork_shards]
//                                 [--stitch-only]
//
// fork_shards (default 8, 0 disables) adds the distributed-observability
// leg: the analysis flow re-runs on that many forked socketpair workers,
// each worker ships its TraceRecorder ring + MetricsSnapshot back in its
// end-of-run control frame, and the coordinator validates the stitched
// multi-pid Chrome trace (written to <trace.json>.stitched.json) plus the
// merged-counter and per-shard-skew invariants. --stitch-only skips the
// crawl/serve legs and runs just that leg at a reduced scale — the mode
// the sanitizer scripts drive, where the full pipeline would be too slow.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "core/analytics.h"
#include "core/pipeline.h"
#include "corpus/text_generator.h"
#include "crawler/focused_crawler.h"
#include "crawler/seed_generator.h"
#include "crawler/sharded_frontier.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/remote.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "serve/admission_queue.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "store/annotation_store.h"
#include "store/store_sink.h"
#include "vec/ann_index.h"
#include "web/search_engine.h"
#include "web/simulated_web.h"

namespace {

// The single-process legs (sections 1-3d): faulty web -> crawl -> analysis
// flow -> store -> admission queue + HTTP front end -> in-process shards.
// Returns false on failure.
bool RunFullPipeline(
    const std::shared_ptr<const wsie::core::AnalysisContext>& context,
    const std::vector<wsie::corpus::Document>& docs,
    const std::string& prom_path) {
  using namespace wsie;

  // 1. Synthetic web with a fault plan: flaky hosts time out, flap their
  //    robots.txt, serve 5xx and damaged bodies.
  corpus::EntityLexicons lexicons(corpus::LexiconConfig{3000, 400, 400, 7});
  web::WebConfig web_config;
  web_config.num_hosts = 120;
  web_config.mean_pages_per_host = 12;
  web::SyntheticWeb graph(web_config);
  web::SimulatedWeb sim(&graph, &lexicons);
  fault::FaultPlanConfig fault_config;
  fault_config.flaky_host_frac = 0.5;
  fault::FaultPlan faults(fault_config);
  sim.set_fault_plan(&faults);

  // 2. Focused crawl with retries, a per-host breaker, and checkpoints
  //    every few batches (so the checkpoint-latency histogram fills).
  web::SearchEngineFederation engines(&sim);
  crawler::SeedGenerator seeder(&lexicons, &engines);
  auto seeds = seeder.Generate(crawler::SeedQueryBudget{60, 120, 100, 120});
  crawler::ClassifierTrainConfig classifier_config;
  classifier_config.docs_per_class = 200;
  crawler::RelevanceClassifier classifier(&lexicons, classifier_config);
  crawler::CrawlerConfig crawl_config;
  crawl_config.max_pages = 1200;
  crawl_config.num_fetch_threads = 8;
  crawl_config.breaker.failure_threshold = 3;
  crawl_config.checkpoint_every_batches = 4;
  crawl_config.checkpoint_path = prom_path + ".ckpt";
  crawler::FocusedCrawler crawler(&sim, &classifier, crawl_config);
  crawler.InjectSeeds(seeds.seed_urls);
  crawler.Crawl();
  std::printf("crawl: %llu pages fetched, %llu errors, %llu faults "
              "injected\n",
              static_cast<unsigned long long>(crawler.stats().fetched),
              static_cast<unsigned long long>(crawler.stats().fetch_errors),
              static_cast<unsigned long long>(faults.faults_injected()));

  // 3. Analysis data flow over the generated Medline corpus (fills the
  //    wsie.dataflow.operator.* and wsie.nlp/ie.* families).
  dataflow::Plan plan = core::BuildAnalysisFlow(context, core::FlowOptions{});
  auto sink = std::make_shared<store::StoreSink>();
  if (store::AttachStoreSink(&plan, sink) == dataflow::Plan::kInvalidNode)
    return false;
  dataflow::ExecutorConfig executor_config;
  executor_config.dop = 4;
  auto result = core::RunFlow(plan, docs, executor_config);
  if (!result.ok()) {
    std::printf("flow failed: %s\n", result.status().ToString().c_str());
    return false;
  }
  std::printf("analysis flow: %zu operators over %zu docs\n",
              plan.num_operators(), docs.size());

  // 3b. Persist annotations through the store and serve a few queries so
  //     the wsie.store.* and wsie.serve.* families fill.
  const std::string store_dir = prom_path + ".store";
  std::filesystem::remove_all(store_dir);
  auto store = store::AnnotationStore::Open(store_dir);
  if (!store.ok()) {
    std::printf("store open failed: %s\n", store.status().ToString().c_str());
    return false;
  }
  if (!sink->FlushTo(store->get()).ok() || !(*store)->Compact().ok()) {
    std::printf("store flush/compact failed\n");
    return false;
  }
  auto engine = std::make_shared<const serve::QueryEngine>(*store);
  const int medline = static_cast<int>(corpus::CorpusKind::kMedline);
  auto genes = engine->TopK(5, serve::QueryFilter{medline, 0, serve::kAny});
  uint64_t lookup_hits = 0;
  for (const auto& gene : genes) {
    if (engine->Lookup(gene.name).found) ++lookup_hits;
    engine->PrefixScan(gene.name.substr(0, 2), 8);
  }
  auto frequency = engine->CorpusFrequency(medline, 0);
  if (genes.size() >= 2) engine->CoOccurrence(genes[0].name, genes[1].name);
  std::printf("store: %zu segments served, top-%zu gene lookups %llu hits, "
              "%.1f gene mentions per 1000 sentences\n",
              (*store)->num_segments(), genes.size(),
              static_cast<unsigned long long>(lookup_hits),
              frequency.per_1000_sentences);

  // 3b'. Build the semantic vector index and run similarity queries so the
  //      wsie.vec.* families (index gauges, build histogram, query
  //      counters/latency/hops) fill.
  {
    vec::VecIndexConfig vec_config;
    vec_config.embedder.dim = 64;
    vec_config.max_degree = 16;
    vec_config.build_beam = 32;
    Status vec_built = (*store)->BuildVectorIndex(vec_config);
    if (!vec_built.ok()) {
      std::printf("vector index build failed: %s\n",
                  vec_built.ToString().c_str());
      return false;
    }
    uint64_t similar_hits = 0;
    for (const auto& gene : genes) {
      const auto similar = engine->Similar(gene.name, 3);
      if (similar.index_available) ++similar_hits;
    }
    const auto text_query = engine->Similar("kinase inhibitor", 3);
    std::printf("vec: index over %zu entities, %llu entity similarity "
                "queries answered, text query available=%d\n",
                (*store)->snapshot().vectors->size(),
                static_cast<unsigned long long>(similar_hits),
                text_query.index_available ? 1 : 0);
    if (similar_hits != genes.size() || !text_query.index_available) {
      std::printf("FAILED: similarity path served nothing\n");
      return false;
    }
  }

  // 3c. Same queries through the batched admission queue and the HTTP
  //     front end — with 1-in-N request sampling forced to every request
  //     and a slow-query log attached — so the wsie.serve.admission.* /
  //     wsie.serve.server.* / wsie.serve.request.* / wsie.serve.sampled /
  //     wsie.serve.slowlog.* families fill too.
  {
    serve::AdmissionQueue::Options queue_options;
    queue_options.trace_sample_every = 1;
    queue_options.slow_log = std::make_shared<serve::SlowQueryLog>();
    auto queue =
        std::make_shared<serve::AdmissionQueue>(engine, queue_options);
    serve::QueryEngine::Request request;
    request.kind = serve::QueryEngine::Request::Kind::kTopK;
    request.limit = 5;
    serve::QueryEngine::Response response;
    uint64_t admitted = 0;
    if (queue->Submit(request, &response)) ++admitted;
    for (const auto& gene : genes) {
      request.kind = serve::QueryEngine::Request::Kind::kLookup;
      request.name = gene.name;
      if (queue->Submit(request, &response)) ++admitted;
    }
    serve::Server server(queue, serve::Server::Options{});
    uint64_t served = 0;
    if (server.Start().ok()) {
      for (const char* target :
           {"/healthz", "/topk?k=3", "/similar?q=kinase&k=3",
            "/debug/slowlog", "/debug/trace"}) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) continue;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server.port());
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          std::string get = std::string("GET ") + target + " HTTP/1.1\r\n\r\n";
          if (::send(fd, get.data(), get.size(), 0) ==
              static_cast<ssize_t>(get.size())) {
            char buf[4096];
            while (::recv(fd, buf, sizeof(buf), 0) > 0) {
            }
            ++served;
          }
        }
        ::close(fd);
      }
      server.Stop();
    }
    queue->Stop();
    const auto slow_top = queue_options.slow_log->TopByLatency();
    std::printf("admission: %llu batched queries (all sampled under trace "
                "spans), %llu HTTP requests over loopback port %u, "
                "slow-query log holds %zu entries\n",
                static_cast<unsigned long long>(admitted),
                static_cast<unsigned long long>(served),
                static_cast<unsigned>(server.port()), slow_top.size());
    if (admitted == 0 || served == 0 || slow_top.empty()) {
      std::printf("FAILED: admission/server/slowlog path served nothing\n");
      return false;
    }
  }

  // 3d. The same flow on two in-process shards, plus a small host-sharded
  //     crawl, so the wsie.shard.* and wsie.exchange.* families fill.
  {
    shard::ShardOptions shard_options;
    shard_options.num_shards = 2;
    auto sharded = core::RunFlowSharded(context, core::FlowOptions{}, docs,
                                        shard_options);
    if (!sharded.ok()) {
      std::printf("sharded flow failed: %s\n",
                  sharded.status().ToString().c_str());
      return false;
    }
    crawler::ShardedCrawlOptions crawl_options;
    crawl_options.num_shards = 2;
    crawl_options.config.max_pages = 60;
    crawler::ShardedCrawl sharded_crawl(&sim, &classifier, crawl_options);
    sharded_crawl.InjectSeeds(seeds.seed_urls);
    sharded_crawl.Crawl();
    std::printf("sharded: flow on %zu shards moved %llu rows / %llu bytes; "
                "crawl exchanged %llu urls in %llu rounds\n",
                shard_options.num_shards,
                static_cast<unsigned long long>(sharded->rows_shuffled),
                static_cast<unsigned long long>(sharded->bytes_moved),
                static_cast<unsigned long long>(sharded_crawl.urls_exchanged()),
                static_cast<unsigned long long>(sharded_crawl.rounds()));
  }
  return true;
}

// Section 3e: the distributed-observability leg. Re-runs the analysis flow
// on `fork_shards` forked socketpair workers with obs collection on, then
// checks the three invariants the CollectRemote design promises: the
// stitched multi-pid Chrome trace validates, the coordinator-side merged
// counters equal the per-shard sums exactly, and the skew report covers
// every shard. Writes the stitched trace next to `trace_path`.
bool RunMultiProcessStitch(
    const std::shared_ptr<const wsie::core::AnalysisContext>& context,
    const std::vector<wsie::corpus::Document>& docs, size_t fork_shards,
    const std::string& trace_path) {
  using namespace wsie;
  shard::ShardOptions options;
  options.num_shards = fork_shards;
  options.multiprocess = true;
  auto result = core::RunFlowSharded(context, core::FlowOptions{}, docs,
                                     options);
  if (!result.ok()) {
    std::printf("multiprocess flow failed: %s\n",
                result.status().ToString().c_str());
    return false;
  }
  const shard::ShardObsReport& report = result->obs;
  if (!report.collected || report.per_shard.size() != fork_shards) {
    std::printf("FAILED: expected %zu worker obs bundles, got %zu\n",
                fork_shards, report.per_shard.size());
    return false;
  }
  Status stitched_ok = obs::ValidateChromeTrace(report.stitched_trace_json);
  if (!stitched_ok.ok()) {
    std::printf("STITCHED TRACE INVALID: %s\n",
                stitched_ok.ToString().c_str());
    return false;
  }
  // Merged counters must equal the per-shard sums exactly.
  for (const obs::CounterSnapshot& counter : report.merged.counters) {
    uint64_t sum = 0;
    for (const obs::ObsBundle& bundle : report.per_shard) {
      sum += bundle.metrics.CounterValue(counter.name);
    }
    if (counter.value != sum) {
      std::printf("FAILED: merged %s = %llu but per-shard sum = %llu\n",
                  counter.name.c_str(),
                  static_cast<unsigned long long>(counter.value),
                  static_cast<unsigned long long>(sum));
      return false;
    }
  }
  const std::string stitched_path = trace_path + ".stitched.json";
  std::FILE* file = std::fopen(stitched_path.c_str(), "w");
  if (file == nullptr) {
    std::printf("cannot write %s\n", stitched_path.c_str());
    return false;
  }
  std::fwrite(report.stitched_trace_json.data(), 1,
              report.stitched_trace_json.size(), file);
  std::fclose(file);
  std::printf("stitched: %zu forked workers -> %zu processes, %zu threads, "
              "%zu events (%llu ring drops) in one trace -> %s\n",
              fork_shards, report.stitch.processes, report.stitch.threads,
              report.stitch.events,
              static_cast<unsigned long long>(report.stitch.dropped),
              stitched_path.c_str());
  std::printf("  per-shard skew (share of records):");
  for (const shard::ShardSkewRow& row : report.skew) {
    std::printf(" s%d=%.1f%%", row.shard, 100 * row.share);
  }
  std::printf("  bundle bytes: %llu\n",
              static_cast<unsigned long long>(report.bundle_bytes));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsie;
  const std::string trace_path =
      argc > 1 ? argv[1] : "/tmp/wsie_obs_trace.json";
  const std::string prom_path =
      argc > 2 ? argv[2] : "/tmp/wsie_obs_metrics.prom";
  size_t fork_shards = 8;
  bool stitch_only = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stitch-only") {
      stitch_only = true;
    } else {
      fork_shards = std::strtoul(arg.c_str(), nullptr, 10);
    }
  }

  obs::TraceRecorder::Global().SetEnabled(true);
  std::printf("observability: metrics %s, tracing on%s\n",
              obs::MetricsEnabled() ? "on" : "off",
              stitch_only ? ", stitch-only mode" : "");

  // Shared analysis context + corpus (scaled down in stitch-only mode,
  // where the sanitizer overhead makes tagger training the bottleneck).
  core::AnalysisContextConfig context_config;
  context_config.crf_training_sentences = stitch_only ? 120 : 400;
  auto context = std::make_shared<const core::AnalysisContext>(context_config);
  corpus::TextGenerator generator(
      &context->lexicons(), corpus::ProfileFor(corpus::CorpusKind::kMedline),
      /*seed=*/1);
  std::vector<corpus::Document> docs =
      generator.GenerateCorpus(1, stitch_only ? 12 : 30);

  if (!stitch_only && !RunFullPipeline(context, docs, prom_path)) return 1;
  if (fork_shards > 0 &&
      !RunMultiProcessStitch(context, docs, fork_shards, trace_path)) {
    return 1;
  }

  // A short profiler blip so the wsie.obs.profiler.* families export with
  // real values (the continuous profiler itself is exercised by bench
  // binaries via --profile).
  {
    obs::Profiler& profiler = obs::Profiler::Global();
    if (profiler.Start().ok()) {
      // Burn CPU until at least one SIGPROF tick lands (bounded at ~2s of
      // wall time so a loaded machine can't hang the example).
      volatile double sink = 1.0;
      const std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (profiler.samples() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        for (int i = 0; i < 2000000; ++i) sink = sink * 1.0000001 + 0.5;
      }
      profiler.Stop();
      std::printf("profiler blip: %llu samples captured\n",
                  static_cast<unsigned long long>(profiler.samples()));
    }
  }

  // 4. Export + validate the trace.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.SetEnabled(false);
  const std::string trace_json = recorder.ToChromeTraceJson();
  obs::TraceCheckReport report;
  Status trace_ok = obs::ValidateChromeTrace(trace_json, &report);
  if (!trace_ok.ok()) {
    std::printf("TRACE INVALID: %s\n", trace_ok.ToString().c_str());
    return 1;
  }
  Status written = recorder.WriteChromeTrace(trace_path);
  if (!written.ok()) {
    std::printf("trace write failed: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("trace: %zu events, %zu spans across %zu threads -> %s "
              "(%llu dropped; load in chrome://tracing or ui.perfetto.dev)\n",
              report.num_events, report.num_spans, report.num_threads,
              trace_path.c_str(),
              static_cast<unsigned long long>(recorder.dropped()));

  // 5. Export the metrics registry and sanity-check the key families.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  {
    std::FILE* file = std::fopen(prom_path.c_str(), "w");
    if (file == nullptr) {
      std::printf("cannot write %s\n", prom_path.c_str());
      return 1;
    }
    const std::string prom = registry.DumpPrometheusText();
    std::fwrite(prom.data(), 1, prom.size(), file);
    std::fclose(file);
  }
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  struct Family {
    const char* prefix;
    uint64_t total;
  };
  Family families[] = {
      {"wsie.dataflow.operator.", snapshot.CounterPrefixSum("wsie.dataflow.operator.")},
      {"wsie.crawler.fetch.", snapshot.CounterPrefixSum("wsie.crawler.fetch.")},
      {"wsie.fault.", snapshot.CounterPrefixSum("wsie.fault.")},
      {"wsie.nlp.", snapshot.CounterPrefixSum("wsie.nlp.")},
      {"wsie.ie.", snapshot.CounterPrefixSum("wsie.ie.")},
      {"wsie.store.", snapshot.CounterPrefixSum("wsie.store.")},
      {"wsie.serve.", snapshot.CounterPrefixSum("wsie.serve.")},
      {"wsie.shard.", snapshot.CounterPrefixSum("wsie.shard.")},
      {"wsie.exchange.", snapshot.CounterPrefixSum("wsie.exchange.")},
  };
  bool all_present = true;
  std::printf("metrics: %zu registered -> %s\n", registry.num_metrics(),
              prom_path.c_str());
  // In stitch-only mode the crawl/serve legs did not run, so only the
  // stitched-run invariants (checked above) gate; the family sums are
  // informational.
  for (const Family& family : families) {
    std::printf("  %-26s sum %llu %s\n", family.prefix,
                static_cast<unsigned long long>(family.total),
                family.total > 0 || stitch_only ? "" : "(MISSING)");
    if (family.total == 0 && !stitch_only) all_present = false;
  }
  double harvest = snapshot.GaugeValue("wsie.crawler.harvest_rate");
  std::printf("  harvest-rate gauge: %.3f\n", harvest);
  if (!all_present) {
    std::printf("FAILED: expected metric families missing\n");
    return 1;
  }
  std::printf("OK: trace valid, all metric families populated\n");
  return 0;
}
