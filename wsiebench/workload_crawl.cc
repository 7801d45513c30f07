// crawl: a focused crawl of a seeded synthetic web to a fixed page budget,
// with the fault plan on (flaky hosts, retries, per-host circuit breaker)
// and virtual fetch latency. web/html/crawler do the work; nlp, ie, store,
// vec and serve stay idle, so a change there must not move this workload.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "corpus/lexicon.h"
#include "crawler/filters.h"
#include "crawler/focused_crawler.h"
#include "crawler/relevance_classifier.h"
#include "crawler/seed_generator.h"
#include "fault/fault_plan.h"
#include "html/boilerplate.h"
#include "html/html_repair.h"
#include "html/markup_remover.h"
#include "obs/metrics.h"
#include "web/search_engine.h"
#include "web/simulated_web.h"
#include "web/url.h"
#include "web/web_graph.h"
#include "workloads.h"

namespace wsie::perfbench {

namespace {

// Web and crawl size: one crawl job takes about half a second on a 4-core
// host, so a 20 s window holds tens of jobs.
constexpr size_t kHosts = 300;
constexpr size_t kPagesPerHost = 15;
constexpr size_t kPageBudget = 1400;
constexpr int kSetupReps = 5;

/// Everything a crawl job reads; rebuilt by each set-up repetition.
struct CrawlEnv {
  std::unique_ptr<corpus::EntityLexicons> lexicons;
  std::unique_ptr<web::SyntheticWeb> graph;
  std::unique_ptr<fault::FaultPlan> faults;
  std::unique_ptr<web::SimulatedWeb> sim;
  std::unique_ptr<crawler::RelevanceClassifier> classifier;
  std::vector<std::string> seeds;
};

void SetUp(uint64_t seed, CrawlEnv* env) {
  corpus::LexiconConfig lexicon_config;
  lexicon_config.seed = 1234 + seed;
  env->lexicons = std::make_unique<corpus::EntityLexicons>(lexicon_config);
  web::WebConfig web_config;
  web_config.num_hosts = kHosts;
  web_config.mean_pages_per_host = kPagesPerHost;
  web_config.seed = 99 + seed * 7919;
  env->graph = std::make_unique<web::SyntheticWeb>(web_config);
  fault::FaultPlanConfig fault_config;
  fault_config.seed = 17 + seed;
  fault_config.record_trace = false;
  env->faults = std::make_unique<fault::FaultPlan>(fault_config);
  env->sim = std::make_unique<web::SimulatedWeb>(env->graph.get(),
                                                 env->lexicons.get());
  env->sim->set_fault_plan(env->faults.get());
  web::SearchEngineFederation engines(env->sim.get(),
                                      web::DefaultEngines(), 31 + seed);
  crawler::SeedGenerator seeder(env->lexicons.get(), &engines, 5 + seed);
  env->seeds =
      seeder.Generate(crawler::SeedQueryBudget{80, 150, 120, 150}).seed_urls;
  crawler::ClassifierTrainConfig classifier_config;
  classifier_config.docs_per_class = 250;
  classifier_config.seed = 2024 + seed;
  env->classifier = std::make_unique<crawler::RelevanceClassifier>(
      env->lexicons.get(), classifier_config);
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a chained through `hash`, so a corpus is digested without copying
/// it into one buffer.
uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct JobResult {
  crawler::CrawlStats stats;
  std::string stats_bytes;  ///< EncodeTo() with processing_seconds zeroed
  uint64_t digest = kFnvOffset;  ///< FNV-1a over the relevant corpus
  std::vector<std::string> corpus_urls;
  double seconds = 0.0;
};

JobResult RunJob(const CrawlEnv& env, const crawler::CrawlerConfig& config) {
  JobResult job;
  const auto start = Clock::now();
  {
    Span span("crawler.crawl");
    crawler::FocusedCrawler crawler(env.sim.get(), env.classifier.get(),
                                    config);
    crawler.InjectSeeds(env.seeds);
    crawler.Crawl();
    job.seconds = SecondsSince(start);
    job.stats = crawler.stats();
    for (const auto* corpus :
         {&crawler.relevant_corpus(), &crawler.irrelevant_corpus()}) {
      for (const corpus::Document& doc : corpus->documents()) {
        job.corpus_urls.push_back(doc.url);
      }
    }
    for (const corpus::Document& doc : crawler.relevant_corpus().documents()) {
      job.digest = Fnv1a(job.digest, std::to_string(doc.id));
      job.digest = Fnv1a(job.digest, doc.url);
      job.digest = Fnv1a(job.digest, doc.text);
    }
  }
  crawler::CrawlStats canonical = job.stats;
  canonical.processing_seconds = 0.0;
  canonical.EncodeTo(&job.stats_bytes);
  return job;
}

/// Replays the per-page work of the crawl's fetch task from outside over
/// the URLs the crawl kept, one span per public call.
void ReplayPages(const CrawlEnv& env, const crawler::CrawlerConfig& config,
                 const std::vector<std::string>& urls) {
  crawler::PreFilterChain prefilter(config.length_filter);
  html::HtmlRepair repair;
  html::BoilerplateDetector boilerplate;
  html::MarkupRemover remover;
  auto& trace = SpanTrace::Global();
  const uint64_t root_request = trace.NewRequestId();
  Span root("root.replay", root_request);
  for (const std::string& url : urls) {
    Span page("crawler.page", trace.NewRequestId());
    web::Url parsed;
    if (!web::ParseUrl(url, &parsed)) continue;
    web::FetchResult fetched;
    {
      Span s("web.fetch");
      for (int attempt = 0;; ++attempt) {
        fetched = env.sim->Fetch(url, attempt);
        if (fetched.status.ok() ||
            !config.retry.ShouldRetry(fetched.status, attempt)) {
          break;
        }
      }
    }
    if (!fetched.status.ok() || fetched.http_status != 200) continue;
    crawler::FilterVerdict verdict;
    {
      Span s("crawler.prefilter");
      std::string_view head(fetched.body.data(),
                            std::min<size_t>(fetched.body.size(), 256));
      verdict = prefilter.ApplyMime(url, head);
    }
    if (verdict != crawler::FilterVerdict::kPass) continue;
    const auto repaired = [&] {
      Span s("html.repair");
      return repair.Repair(fetched.body);
    }();
    if (!repaired.ok()) continue;
    {
      Span s("html.links");
      std::vector<std::string> out_urls;
      for (const std::string& link : remover.ExtractLinks(repaired->html)) {
        web::Url resolved;
        if (web::ResolveLink(parsed, link, &resolved)) {
          out_urls.push_back(resolved.ToString());
        }
      }
    }
    std::string net_text;
    {
      Span s("html.boilerplate");
      net_text = boilerplate.NetText(repaired->html);
    }
    {
      Span s("crawler.prefilter");
      verdict = prefilter.ApplyTextFilters(net_text);
    }
    if (verdict != crawler::FilterVerdict::kPass) continue;
    {
      Span s("crawler.classify");
      (void)env.classifier->RelevanceScore(net_text);
    }
  }
}

uint64_t CounterDiff(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after, const char* name) {
  return after.CounterValue(name) - before.CounterValue(name);
}

}  // namespace

int RunCrawl(const Options& options, Report* report) {
  CrawlEnv env;
  report->e2e.setup_s =
      MedianSetupSeconds(kSetupReps, [&] { SetUp(options.seed, &env); });

  crawler::CrawlerConfig config;
  config.num_fetch_threads = options.threads;
  config.max_pages = kPageBudget;
  config.breaker.failure_threshold = 3;
  config.fetch_pool = std::make_shared<ThreadPool>(options.threads);

  // Warm-up crawl: fills lazy state and is the oracle's reference.
  const JobResult reference = RunJob(env, config);
  report->Check(reference.stats.fetched > 0, "warm-up crawl fetched pages");
  std::fprintf(stderr,
               "crawl: %zu seeds, warm-up fetched %llu pages (%llu errors, "
               "%llu retries, %llu batches) in %.3f s\n",
               env.seeds.size(),
               static_cast<unsigned long long>(reference.stats.fetched),
               static_cast<unsigned long long>(reference.stats.fetch_errors),
               static_cast<unsigned long long>(reference.stats.fetch_retries),
               static_cast<unsigned long long>(reference.stats.batches),
               reference.seconds);

  auto check_job = [&](const JobResult& job) {
    report->CountOps(1, 0);
    report->Check(job.stats_bytes == reference.stats_bytes,
                  "crawl stats equal the warm-up crawl's");
    report->Check(job.digest == reference.digest,
                  "relevant-corpus digest equals the warm-up crawl's");
  };

  // Untraced window: the end-to-end metrics. Rates are medians over jobs,
  // so one job slowed by the host does not move them.
  std::vector<double> op_us, pages_per_s, mb_per_s;
  const auto window = Clock::now();
  while (op_us.empty() || SecondsSince(window) < options.seconds) {
    const JobResult job = RunJob(env, config);
    check_job(job);
    op_us.push_back(job.seconds * 1e6);
    pages_per_s.push_back(static_cast<double>(job.stats.fetched) /
                          job.seconds);
    mb_per_s.push_back(static_cast<double>(job.stats.relevant_bytes) / 1e6 /
                       job.seconds);
  }
  report->e2e.units_per_s = Median(pages_per_s);
  report->e2e.op_us = Summarize(op_us);
  report->e2e.out_mb_per_s = Median(mb_per_s);
  if (!options.trace) return 0;

  // Traced window: the same jobs under spans, with registry diffs per job.
  auto& trace = SpanTrace::Global();
  auto& registry = obs::MetricsRegistry::Global();
  trace.SetEnabled(true);
  uint64_t root_id = 0;
  std::vector<double> crawl_s, traced_pages_per_s;
  JobResult last;
  obs::MetricsSnapshot before, after;
  {
    Span root("root.crawl", trace.NewRequestId());
    root_id = root.id();
    const auto traced_window = Clock::now();
    while (crawl_s.empty() || SecondsSince(traced_window) < options.seconds) {
      {
        Span s("obs.snapshot");
        before = registry.Snapshot();
      }
      last = RunJob(env, config);
      {
        Span s("obs.snapshot");
        after = registry.Snapshot();
      }
      check_job(last);
      report->Check(
          CounterDiff(before, after, "wsie.crawler.fetch.pages") ==
                  last.stats.fetched &&
              CounterDiff(before, after, "wsie.crawler.fetch.errors") ==
                  last.stats.fetch_errors &&
              CounterDiff(before, after, "wsie.crawler.fetch.retries") ==
                  last.stats.fetch_retries &&
              CounterDiff(before, after, "wsie.crawler.batches") ==
                  last.stats.batches,
          "registry crawl counters equal CrawlStats");
      crawl_s.push_back(last.seconds);
      traced_pages_per_s.push_back(static_cast<double>(last.stats.fetched) /
                                   last.seconds);
    }
  }
  ReplayPages(env, config, last.corpus_urls);
  trace.SetEnabled(false);
  std::vector<SpanRecord> spans = trace.Drain();
  WriteTrace(options, spans);

  // Per-page replay totals per span name.
  std::map<std::string, double> replay_s;
  for (const SpanRecord& s : spans) {
    replay_s[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  const double replay_pages =
      static_cast<double>(std::max<size_t>(last.corpus_urls.size(), 1));
  auto per_page_us = [&](const char* name) {
    return replay_s[name] / replay_pages * 1e6;
  };
  const double median_crawl_s = Median(crawl_s);
  const double capacity = median_crawl_s * static_cast<double>(options.threads);
  const double web_s = replay_s["web.fetch"];
  const double html_s = replay_s["html.repair"] + replay_s["html.links"] +
                        replay_s["html.boilerplate"];
  const double per_page_total =
      web_s + html_s + replay_s["crawler.prefilter"] +
      replay_s["crawler.classify"];

  report->SetLayer("crawler.crawl_s", median_crawl_s);
  report->SetLayer("web.fetch_us", per_page_us("web.fetch"));
  report->SetLayer("html.repair_us", per_page_us("html.repair"));
  report->SetLayer("html.links_us", per_page_us("html.links"));
  report->SetLayer("html.boilerplate_us", per_page_us("html.boilerplate"));
  report->SetLayer("crawler.prefilter_us", per_page_us("crawler.prefilter"));
  report->SetLayer("crawler.classify_us", per_page_us("crawler.classify"));
  report->SetLayer("crawler.worker_busy_frac", per_page_total / capacity);
  report->SetLayer("crawler.pages",
                   CounterDiff(before, after, "wsie.crawler.fetch.pages"));
  report->SetLayer("crawler.fetch_errors",
                   CounterDiff(before, after, "wsie.crawler.fetch.errors"));
  report->SetLayer("crawler.retries",
                   CounterDiff(before, after, "wsie.crawler.fetch.retries"));
  report->SetLayer("crawler.batches",
                   CounterDiff(before, after, "wsie.crawler.batches"));
  const double relevant = static_cast<double>(
      CounterDiff(before, after, "wsie.crawler.classified.relevant"));
  const double irrelevant = static_cast<double>(
      CounterDiff(before, after, "wsie.crawler.classified.irrelevant"));
  report->SetLayer("crawler.harvest_rate",
                   relevant + irrelevant > 0
                       ? relevant / (relevant + irrelevant)
                       : 0.0);
  report->SetLayer("obs.series", static_cast<double>(registry.num_metrics()));

  // The crawl call is opaque from outside: split its time by the replayed
  // per-page work, as a share of the crawl's fetch-thread capacity. What
  // remains with `crawler` is the serial gate/apply phase, the per-page
  // filters and classifier, and idle fetch threads.
  LayerTable table = BuildLayerTable(spans, root_id);
  const double crawl_total = table.self_s["crawler"];
  table.Reattribute("crawler", {{"web", crawl_total * web_s / capacity},
                                {"html", crawl_total * html_s / capacity}});
  const double overhead =
      report->e2e.units_per_s / Median(traced_pages_per_s) - 1.0;
  report->SetLayerTable(table, overhead);
  PrintLayerTable(options.workload, table, overhead);
  std::fprintf(stderr,
               "crawl replay: %zu pages, per page: fetch %.1f us, repair "
               "%.1f us, links %.1f us, boilerplate %.1f us, prefilter %.1f "
               "us, classify %.1f us; worker busy %.1f%%\n",
               last.corpus_urls.size(), per_page_us("web.fetch"),
               per_page_us("html.repair"), per_page_us("html.links"),
               per_page_us("html.boilerplate"),
               per_page_us("crawler.prefilter"),
               per_page_us("crawler.classify"),
               100.0 * per_page_total / capacity);
  return 0;
}

}  // namespace wsie::perfbench
