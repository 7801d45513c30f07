// wsie_perfbench: the repository benchmark. One process runs one workload
// (crawl | analyze | serve_rw) for a fixed measuring window and prints, as
// its last stdout line, one JSON object with the oracle verdict, operation
// counts and either the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). See README.md beside this file.
//
// Usage: wsie_perfbench --workload W --seed N --seconds S --trace 0|1

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "workloads.h"

namespace wsie::perfbench {

namespace {

std::vector<std::pair<std::string, std::string>> BuildPerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      // crawl
      {"crawler.crawl_s", "s"},
      {"web.fetch_us", "us"},
      {"html.repair_us", "us"},
      {"html.links_us", "us"},
      {"html.boilerplate_us", "us"},
      {"crawler.prefilter_us", "us"},
      {"crawler.classify_us", "us"},
      {"crawler.worker_busy_frac", "ratio"},
      {"crawler.pages", "count"},
      {"crawler.fetch_errors", "count"},
      {"crawler.retries", "count"},
      {"crawler.batches", "count"},
      {"crawler.harvest_rate", "ratio"},
      {"obs.series", "count"},
      // analyze
      {"core.run_flow_s", "s"},
  };
  for (const char* op :
       {"annotate_sentences", "find_negation", "find_pronouns",
        "find_parentheses", "find_abbreviations", "annotate_pos",
        "annotate_gene_dict", "annotate_drug_dict", "annotate_disease_dict",
        "annotate_gene_ml", "annotate_drug_ml", "annotate_disease_ml",
        "union_results", "store_sink"}) {
    m.emplace_back(std::string("dataflow.op.") + op + ".process_s", "s");
  }
  for (const auto& entry : std::vector<std::pair<std::string, std::string>>{
           {"nlp.pos_ns_per_token", "ns"},
           {"dataflow.busy_frac", "ratio"},
           {"nlp.tokens", "count"},
           {"nlp.sentences", "count"},
           {"ie.annotations", "count"},
           {"ie.entities", "count"},
           {"dataflow.open.cold", "count"},
           {"dataflow.open.cached", "count"},
           {"store.flush_s", "s"},
           {"store.compact_s", "s"},
           {"vec.build_s", "s"},
           {"vec.build.embed_s", "s"},
           {"vec.build.graph_s", "s"},
           {"vec.recall_at_10", "ratio"},
           // serve_rw
           {"store.append_s", "s"},
           {"store.compact.stitch_s", "s"},
           {"store.compact.partition_s", "s"},
           {"store.compact.partitions", "count"},
           {"store.compactions", "count"},
           {"vec.builds", "count"},
           {"store.epoch.retired", "count"},
           {"store.epoch.reclaimed", "count"},
       }) {
    m.push_back(entry);
  }
  for (const char* stage : {"submit", "engine"}) {
    for (const char* kind : {"lookup", "prefix", "frequency", "topk",
                             "cooccurrence", "similar"}) {
      for (const char* pct : {"p50", "p99"}) {
        m.emplace_back(std::string("serve.") + stage + "_us." + kind + "." +
                           pct,
                       "us");
      }
    }
  }
  for (const auto& entry : std::vector<std::pair<std::string, std::string>>{
           {"serve.admission.wait_us", "us"},
           {"serve.admission.batch_size", "count"},
           {"vec.query.hops", "count"},
           {"vec.queries_delta", "count"},
           {"vec.index.stale_terms", "count"},
       }) {
    m.push_back(entry);
  }
  for (const std::string& layer : TableLayers()) {
    m.emplace_back("layer." + layer + ".share", "ratio");
  }
  m.emplace_back("layer.unattributed.share", "ratio");
  m.emplace_back("trace.overhead_frac", "ratio");
  return m;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: wsie_perfbench --workload crawl|analyze|serve_rw "
               "--seed N --seconds S --trace 0|1\n");
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>(
          BuildPerLayerMetrics());
  return *metrics;
}

const std::vector<std::string>& TableLayers() {
  static const std::vector<std::string> layers = {
      "web", "html", "crawler", "core", "dataflow", "text", "nlp",
      "ie",  "store", "vec",    "serve", "obs",     "bench"};
  return layers;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "ORACLE FAILED: %s\n", what.c_str());
}

void Report::SetLayer(const std::string& name, double value) {
  const auto& known = PerLayerMetrics();
  const bool declared =
      std::any_of(known.begin(), known.end(),
                  [&](const auto& entry) { return entry.first == name; });
  if (!declared) {
    std::fprintf(stderr, "internal error: undeclared metric %s\n",
                 name.c_str());
    std::abort();
  }
  layers_[name] = value;
}

void Report::SetLayerTable(const LayerTable& table,
                           double tracing_overhead_frac) {
  double total = table.unattributed_s;
  for (const auto& [layer, seconds] : table.self_s) total += seconds;
  if (total <= 0) total = 1.0;
  for (const std::string& layer : TableLayers()) {
    auto it = table.self_s.find(layer);
    SetLayer("layer." + layer + ".share",
             it == table.self_s.end() ? 0.0 : it->second / total);
  }
  SetLayer("layer.unattributed.share", table.unattributed_s / total);
  SetLayer("trace.overhead_frac", tracing_overhead_frac);
}

double MedianSetupSeconds(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    setup();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

void PrintLayerTable(const std::string& workload, const LayerTable& table,
                     double tracing_overhead_frac) {
  double total = table.unattributed_s;
  for (const auto& [layer, seconds] : table.self_s) total += seconds;
  std::fprintf(stderr,
               "\nlayer table (%s, traced phase wall %.3f s, %.3f traced "
               "thread-s)\n  %-14s %12s %8s\n",
               workload.c_str(), table.wall_s, total, "layer", "self_s",
               "share");
  for (const std::string& layer : TableLayers()) {
    auto it = table.self_s.find(layer);
    const double s = it == table.self_s.end() ? 0.0 : it->second;
    std::fprintf(stderr, "  %-14s %12.4f %7.2f%%\n", layer.c_str(), s,
                 total > 0 ? 100.0 * s / total : 0.0);
  }
  for (const auto& [layer, seconds] : table.self_s) {
    const auto& known = TableLayers();
    if (std::find(known.begin(), known.end(), layer) != known.end()) continue;
    std::fprintf(stderr, "  %-14s %12.4f %7.2f%%  (unknown layer)\n",
                 layer.c_str(), seconds,
                 total > 0 ? 100.0 * seconds / total : 0.0);
  }
  std::fprintf(stderr, "  %-14s %12.4f %7.2f%%\n", "unattributed",
               table.unattributed_s,
               total > 0 ? 100.0 * table.unattributed_s / total : 0.0);
  std::fprintf(stderr,
               "  %-14s %+11.2f%%  (traced vs untraced throughput)\n",
               "tracing", 100.0 * tracing_overhead_frac);
}

void WriteTrace(const Options& options, const std::vector<SpanRecord>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string path = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".trace.json";
  if (WriteChromeTrace(path, spans)) {
    std::fprintf(stderr, "trace: %zu spans -> %s\n", spans.size(),
                 path.c_str());
  } else {
    std::fprintf(stderr, "trace: could not write %s\n", path.c_str());
  }
}

}  // namespace wsie::perfbench

int main(int argc, char** argv) {
  using namespace wsie::perfbench;
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      PrintUsage();
      return 2;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') options.seconds = 0;
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else {
      PrintUsage();
      return 2;
    }
  }
  if (!have_seed || options.seconds <= 0) {
    PrintUsage();
    return 2;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  options.threads = cores > 0 ? cores : 1;
  options.work_dir = options.out_dir + "/work-" + options.workload + "-" +
                     std::to_string(::getpid());

  Report report;
  int rc = 0;
  if (options.workload == "crawl") {
    rc = RunCrawl(options, &report);
  } else if (options.workload == "analyze") {
    rc = RunAnalyze(options, &report);
  } else if (options.workload == "serve_rw") {
    rc = RunServeRw(options, &report);
  } else {
    PrintUsage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  if (rc != 0) return rc;  // set-up or I/O failure: no result line

  std::string metrics;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + FormatNumber(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (options.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = report.layers().find(name);
      add(name, it == report.layers().end() ? 0.0 : it->second, unit);
    }
  } else {
    const EndToEnd& e = report.e2e;
    add("setup_s", e.setup_s, "s");
    add("units_per_s", e.units_per_s, "1/s");
    add("op_p50_us", e.op_us.median, "us");
    add("op_tail_us", e.op_us.tail, "us");
    add("out_mb_per_s", e.out_mb_per_s, "MB/s");
    add("peak_rss_mb", PeakRssMb(), "MB");
    std::fprintf(stderr,
                 "\n%s seed %" PRIu64 ": setup %.3f s | %.6g units/s | op "
                 "p50 %.1f us, %s %.1f us (n=%zu) | %.4g MB/s out | peak "
                 "rss %.1f MB | failed %" PRIu64 "/%" PRIu64 " (%.3g)\n",
                 options.workload.c_str(), options.seed, e.setup_s,
                 e.units_per_s, e.op_us.median, TailLabel(e.op_us).c_str(),
                 e.op_us.tail, e.op_us.n, e.out_mb_per_s, PeakRssMb(),
                 report.failed(), report.attempted(),
                 report.attempted() == 0
                     ? 0.0
                     : static_cast<double>(report.failed()) /
                           static_cast<double>(report.attempted()));
  }
  const bool correct = report.correct() && report.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              std::max<uint64_t>(report.attempted(), 1), report.failed(),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
