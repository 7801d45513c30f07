// Sect. 4.2 war story, failure half: at web scale "some of the documents"
// always fail — tools crash, hosts time out, robots.txt flaps — and the
// paper's flows had to survive that without losing the rest of the batch.
// This benchmark demonstrates the two recovery mechanisms end to end:
//
//  1. Crawl kill-and-resume: a crawl checkpointing every batch is killed
//     after two batches, restored into a fresh process image, and finished.
//     The resumed run's CrawlDB, LinkDB, and harvest rate must be
//     byte-identical to an uninterrupted run under the same fault plan.
//
//  2. Executor task retry: a fused extraction plan whose middle operator
//     injects >= 5% transient faults must finish with zero lost records —
//     output bit-identical to the fault-free plan — by re-running only the
//     failed morsels.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "crawler/focused_crawler.h"
#include "dataflow/executor.h"
#include "dataflow/fault_injection.h"
#include "dataflow/operators_base.h"
#include "dataflow/plan.h"
#include "fault/fault_plan.h"
#include "web/simulated_web.h"

namespace {

using namespace wsie;

struct CrawlOutcome {
  std::string crawl_db;
  std::string link_db;
  crawler::CrawlStats stats;
};

CrawlOutcome RunCrawl(web::SyntheticWeb* graph,
                      const corpus::EntityLexicons* lexicons,
                      crawler::RelevanceClassifier* classifier,
                      const crawler::CrawlerConfig& config,
                      const std::vector<std::string>& seeds,
                      const std::string& resume_from) {
  fault::FaultPlanConfig plan_config;
  plan_config.seed = 20;
  plan_config.flaky_host_frac = 0.5;
  fault::FaultPlan plan(plan_config);
  web::SimulatedWeb sim(graph, lexicons);
  sim.set_fault_plan(&plan);
  crawler::FocusedCrawler crawler(&sim, classifier, config);
  if (resume_from.empty()) {
    crawler.InjectSeeds(seeds);
  } else {
    Status restored = crawler.RestoreCheckpoint(resume_from);
    if (!restored.ok()) {
      std::printf("checkpoint restore FAILED: %s\n",
                  restored.ToString().c_str());
      std::exit(1);
    }
  }
  crawler.Crawl();
  CrawlOutcome out;
  crawler.crawl_db().EncodeTo(&out.crawl_db);
  crawler.link_db().EncodeTo(&out.link_db);
  out.stats = crawler.stats();
  return out;
}

dataflow::Plan MakeExtractionPlan(
    std::shared_ptr<dataflow::FaultInjectingOperator>* fault_op,
    double transient_prob) {
  using dataflow::Dataset;
  using dataflow::Record;
  dataflow::Plan plan;
  int src = plan.AddSource("docs");
  int tokenize = plan.AddNode(
      std::make_shared<dataflow::FlatMapOperator>(
          "sentence_split",
          [](const Record& r, Dataset* out) {
            int64_t x = r.Field("x").AsInt();
            for (int64_t s = 0; s < 1 + x % 3; ++s) {
              Record copy = r;
              copy.SetField("sentence", s);
              out->push_back(std::move(copy));
            }
          }),
      {src});
  auto annotator = std::make_shared<dataflow::FaultInjectingOperator>(
      std::make_shared<dataflow::MapOperator>(
          "annotate",
          [](const Record& r) {
            Record copy = r;
            copy.SetField("entity",
                          r.Field("x").AsInt() * 31 + r.Field("sentence").AsInt());
            return copy;
          }),
      dataflow::FaultInjectionOptions{42, transient_prob, 0.0});
  if (fault_op != nullptr) *fault_op = annotator;
  int annotate = plan.AddNode(annotator, {tokenize});
  int keep = plan.AddNode(
      std::make_shared<dataflow::FilterOperator>(
          "keep_entities",
          [](const Record& r) { return r.Field("entity").AsInt() % 5 != 0; }),
      {annotate});
  plan.MarkSink(keep, "entities");
  return plan;
}

std::string RunExtraction(const dataflow::Plan& plan,
                          const std::map<std::string, dataflow::Dataset>& in,
                          int max_task_retries, uint64_t* retries_out) {
  dataflow::ExecutorConfig config;
  config.dop = 4;
  config.morsel_records = 16;
  config.fuse_pipelines = true;
  config.max_task_retries = max_task_retries;
  dataflow::Executor executor(config);
  auto result = executor.Run(plan, in);
  if (!result.ok()) {
    std::printf("extraction flow FAILED: %s\n",
                result.status().ToString().c_str());
    std::exit(1);
  }
  if (retries_out != nullptr) *retries_out = result->task_retries;
  std::string json;
  for (const dataflow::Record& r : result->sink_outputs.at("entities")) {
    json += r.ToJson();
    json += '\n';
  }
  return json;
}

}  // namespace

int main() {
  bench::PrintHeader("Sect. 4.2: Fault injection & recovery",
                     "Sect. 4.2 (failures at web scale; checkpointed crawls, "
                     "retried flows)");
  bench::BenchScale scale;
  scale.relevant_docs = scale.irrelevant_docs = scale.medline_docs =
      scale.pmc_docs = 1;
  bench::BenchEnv env = bench::MakeBenchEnv(scale);

  web::WebConfig web_config;
  web_config.num_hosts = 60;
  web_config.mean_pages_per_host = 10;
  web_config.seed = 13;
  web::SyntheticWeb graph(web_config);

  crawler::ClassifierTrainConfig classifier_config;
  classifier_config.docs_per_class = 120;
  crawler::RelevanceClassifier classifier(&env.context->lexicons(),
                                          classifier_config);

  std::vector<std::string> seeds;
  for (const auto& page : graph.pages()) {
    if (seeds.size() >= 15) break;
    const auto& host = graph.HostOf(page);
    if ((host.topic == web::HostTopic::kBiomedPortal ||
         host.topic == web::HostTopic::kBiomedResearch) &&
        page.mime == lang::MimeClass::kHtml && page.relevant) {
      seeds.push_back(graph.UrlOf(page));
    }
  }

  // --- 1. Kill-and-resume crawl --------------------------------------
  crawler::CrawlerConfig config;
  config.num_fetch_threads = 4;
  config.max_pages = 250;

  CrawlOutcome uninterrupted = RunCrawl(&graph, &env.context->lexicons(),
                                        &classifier, config, seeds, "");

  std::string ckpt = "sec42_fault_recovery.ckpt";
  crawler::CrawlerConfig killed_config = config;
  killed_config.max_batches = 2;  // the "kill" point
  killed_config.checkpoint_every_batches = 1;
  killed_config.checkpoint_path = ckpt;
  CrawlOutcome killed = RunCrawl(&graph, &env.context->lexicons(), &classifier,
                                 killed_config, seeds, "");
  CrawlOutcome resumed = RunCrawl(&graph, &env.context->lexicons(), &classifier,
                                  config, seeds, ckpt);
  std::remove(ckpt.c_str());

  std::printf("crawl under faults: %llu pages, %llu faults injected, "
              "%llu retries, %llu fetch errors\n",
              static_cast<unsigned long long>(uninterrupted.stats.fetched),
              static_cast<unsigned long long>(uninterrupted.stats.fetch_faults),
              static_cast<unsigned long long>(
                  uninterrupted.stats.fetch_retries),
              static_cast<unsigned long long>(
                  uninterrupted.stats.fetch_errors));
  std::printf("killed after %llu batches (%llu pages), resumed to %llu\n",
              static_cast<unsigned long long>(killed.stats.batches),
              static_cast<unsigned long long>(killed.stats.fetched),
              static_cast<unsigned long long>(resumed.stats.fetched));
  bool crawl_db_identical = uninterrupted.crawl_db == resumed.crawl_db;
  bool link_db_identical = uninterrupted.link_db == resumed.link_db;
  bool harvest_identical =
      uninterrupted.stats.HarvestRate() == resumed.stats.HarvestRate();
  bench::PrintCompare("resumed CrawlDB vs uninterrupted", "byte-identical",
                      crawl_db_identical ? "byte-identical" : "DIVERGED");
  bench::PrintCompare("resumed LinkDB vs uninterrupted", "byte-identical",
                      link_db_identical ? "byte-identical" : "DIVERGED");
  bench::PrintCompare(
      "resumed harvest rate", FormatDouble(
          100 * uninterrupted.stats.HarvestRate(), 2) + "%",
      FormatDouble(100 * resumed.stats.HarvestRate(), 2) + "%");

  // --- 2. Fused flow under >= 5% transient faults --------------------
  dataflow::Dataset docs;
  for (int64_t i = 0; i < 2000; ++i) {
    dataflow::Record r;
    r.SetField("x", i);
    docs.push_back(std::move(r));
  }
  std::map<std::string, dataflow::Dataset> inputs;
  inputs.emplace("docs", std::move(docs));

  std::string clean = RunExtraction(MakeExtractionPlan(nullptr, 0.0), inputs,
                                    0, nullptr);
  std::shared_ptr<dataflow::FaultInjectingOperator> fault_op;
  dataflow::Plan faulty_plan = MakeExtractionPlan(&fault_op, 0.05);
  uint64_t task_retries = 0;
  std::string faulty = RunExtraction(faulty_plan, inputs, 3, &task_retries);

  std::printf("\nfused flow: %llu transient faults injected, "
              "%llu task retries\n",
              static_cast<unsigned long long>(fault_op->transient_failures()),
              static_cast<unsigned long long>(task_retries));
  bool zero_lost = faulty == clean;
  bench::PrintCompare("records lost to faults", "0",
                      zero_lost ? "0 (output bit-identical)" : "RECORDS LOST");

  bool ok = crawl_db_identical && link_db_identical && harvest_identical &&
            uninterrupted.stats.fetch_faults > 0 &&
            uninterrupted.stats.fetch_retries > 0 &&
            killed.stats.fetched < uninterrupted.stats.fetched &&
            fault_op->transient_failures() > 0 && task_retries > 0 &&
            zero_lost;
  std::printf("\nSect. 4.2 recovery shape (kill-resume byte-identical, "
              "fused flow loses zero records at >=5%% faults): %s\n",
              ok ? "HOLDS" : "VIOLATED");
  return ok ? 0 : 1;
}
