#include "bench_util.h"

#include <algorithm>
#include <cstdlib>

#include "common/string_util.h"
#include "obs/profiler.h"
#include "store/store_sink.h"

namespace wsie::bench {
namespace {

// --profile state: the atexit hook needs the output path after main ends.
std::string* ProfilePath() {
  static std::string* path = new std::string();
  return path;
}

void StopProfilerAtExit() {
  auto& profiler = obs::Profiler::Global();
  profiler.Stop();
  const std::string& path = *ProfilePath();
  Status written = profiler.WriteFolded(path);
  if (!written.ok()) {
    std::fprintf(stderr, "profile write failed: %s\n",
                 written.ToString().c_str());
    return;
  }
  std::fprintf(stderr,
               "profile: %llu samples (%llu dropped) -> %s "
               "(feed to flamegraph.pl)\n",
               static_cast<unsigned long long>(profiler.samples()),
               static_cast<unsigned long long>(profiler.dropped()),
               path.c_str());
}

}  // namespace

BenchScale ReadBenchScale() {
  BenchScale scale;
  const char* env = std::getenv("WSIE_BENCH_SCALE");
  if (env != nullptr) {
    double factor = std::strtod(env, nullptr);
    if (factor > 0) {
      scale.relevant_docs = static_cast<size_t>(scale.relevant_docs * factor);
      scale.irrelevant_docs =
          static_cast<size_t>(scale.irrelevant_docs * factor);
      scale.medline_docs = static_cast<size_t>(scale.medline_docs * factor);
      scale.pmc_docs = static_cast<size_t>(scale.pmc_docs * factor);
    }
  }
  return scale;
}

BenchFlags ParseBenchFlags(int argc, char** argv, BenchFlags defaults) {
  BenchFlags flags = defaults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dop=", 0) == 0) {
      const long value = std::strtol(arg.c_str() + 6, nullptr, 10);
      if (value > 0) flags.dop = static_cast<size_t>(value);
      continue;
    }
    if (arg.rfind("--shards=", 0) == 0) {
      std::vector<size_t> shards;
      const char* p = arg.c_str() + 9;
      while (*p != '\0') {
        char* end = nullptr;
        const long value = std::strtol(p, &end, 10);
        if (end == p) break;
        if (value > 0) shards.push_back(static_cast<size_t>(value));
        p = (*end == ',') ? end + 1 : end;
      }
      if (!shards.empty()) flags.shards = std::move(shards);
      continue;
    }
    if (arg == "--profile" || arg.rfind("--profile=", 0) == 0) {
      flags.profile = true;
      if (arg.size() > 10 && arg[9] == '=') {
        flags.profile_path = arg.substr(10);
      }
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      flags.json_path = arg.substr(7);
      continue;
    }
    std::fprintf(stderr,
                 "unknown argument '%s'\nusage: %s [--dop=N] "
                 "[--shards=N1,N2,...] [--profile[=path]] [--json=PATH|none]\n",
                 arg.c_str(), argv[0]);
    std::exit(2);
  }
  if (flags.profile) {
    *ProfilePath() = flags.profile_path;
    Status started = obs::Profiler::Global().Start();
    if (!started.ok()) {
      std::fprintf(stderr, "profiler start failed: %s\n",
                   started.ToString().c_str());
      std::exit(2);
    }
    std::atexit(StopProfilerAtExit);
  }
  return flags;
}

BenchEnv MakeBenchEnv(BenchScale scale) {
  BenchEnv env;
  env.scale = scale;
  core::AnalysisContextConfig config;
  config.crf_training_sentences = scale.crf_training_sentences;
  config.pos_training_sentences = scale.pos_training_sentences;
  env.context = std::make_shared<const core::AnalysisContext>(config);

  auto generate = [&](corpus::CorpusKind kind, size_t n, uint64_t seed) {
    corpus::TextGenerator generator(&env.context->lexicons(),
                                    corpus::ProfileFor(kind), seed);
    env.corpora[kind] = generator.GenerateCorpus(seed * 100000, n);
  };
  generate(corpus::CorpusKind::kRelevantWeb, scale.relevant_docs, 1);
  generate(corpus::CorpusKind::kIrrelevantWeb, scale.irrelevant_docs, 2);
  generate(corpus::CorpusKind::kMedline, scale.medline_docs, 3);
  generate(corpus::CorpusKind::kPmc, scale.pmc_docs, 4);
  return env;
}

core::CorpusAnalysis AnalyzeCorpus(const BenchEnv& env,
                                   corpus::CorpusKind kind, size_t dop) {
  core::FlowOptions options;
  dataflow::Plan plan = core::BuildAnalysisFlow(env.context, options);
  auto result = core::RunFlow(plan, env.corpora.at(kind),
                              dataflow::ExecutorConfig{dop, 0, 8});
  if (!result.ok()) {
    std::fprintf(stderr, "flow failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return core::AnalyzeRecords(kind, result->sink_outputs.at("analyzed"));
}

core::CorpusAnalysis AnalyzeCorpusIntoStore(const BenchEnv& env,
                                            corpus::CorpusKind kind,
                                            store::AnnotationStore* annotations,
                                            size_t dop) {
  core::FlowOptions options;
  dataflow::Plan plan = core::BuildAnalysisFlow(env.context, options);
  auto sink = std::make_shared<store::StoreSink>();
  if (store::AttachStoreSink(&plan, sink) == dataflow::Plan::kInvalidNode) {
    std::fprintf(stderr, "no 'analyzed' sink to attach the store to\n");
    std::exit(1);
  }
  auto result = core::RunFlow(plan, env.corpora.at(kind),
                              dataflow::ExecutorConfig{dop, 0, 8});
  if (!result.ok()) {
    std::fprintf(stderr, "flow failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  Status flushed = sink->FlushTo(annotations);
  if (!flushed.ok()) {
    std::fprintf(stderr, "store flush failed: %s\n",
                 flushed.ToString().c_str());
    std::exit(1);
  }
  return core::AnalyzeRecords(kind, result->sink_outputs.at("analyzed"));
}

std::vector<ArmSamples> RunRepetitions(int reps, const std::vector<Arm>& arms) {
  for (const Arm& arm : arms) arm.run();  // warm-up, discarded
  std::vector<ArmSamples> out(arms.size());
  for (size_t a = 0; a < arms.size(); ++a) out[a].name = arms[a].name;
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t step = 0; step < arms.size(); ++step) {
      const size_t a = rep % 2 == 0 ? step : arms.size() - 1 - step;
      out[a].samples.push_back(arms[a].run());
    }
  }
  for (ArmSamples& arm : out) arm.stats = ml::Describe(arm.samples);
  return out;
}

double MedianPairedRatio(const ArmSamples& numerator,
                         const ArmSamples& denominator) {
  std::vector<double> ratios;
  for (size_t i = 0; i < numerator.samples.size(); ++i) {
    ratios.push_back(numerator.samples[i] / denominator.samples[i]);
  }
  return ml::Describe(std::move(ratios)).median;
}

void PrintArms(const std::vector<ArmSamples>& arms, const char* unit) {
  std::printf("  %-22s %12s %12s %12s  (%s, %zu reps after warm-up)\n", "arm",
              "min", "median", "IQR", unit,
              arms.empty() ? size_t{0} : arms[0].samples.size());
  for (const ArmSamples& arm : arms) {
    std::printf("  %-22s %12.4f %12.4f %12.4f\n", arm.name.c_str(),
                arm.stats.min, arm.stats.median, arm.iqr());
  }
}

JsonSummary::JsonSummary(std::string name, const BenchFlags& flags) {
  if (flags.json_path == "none") {
    path_.clear();
  } else if (!flags.json_path.empty()) {
    path_ = flags.json_path;
  } else {
    path_ = "BENCH_" + name + ".json";
  }
}

void JsonSummary::SetRaw(const std::string& key, std::string encoded) {
  for (auto& entry : entries_) {
    if (entry.first == key) {
      entry.second = std::move(encoded);
      return;
    }
  }
  entries_.emplace_back(key, std::move(encoded));
}

void JsonSummary::Set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  SetRaw(key, buf);
}

void JsonSummary::Set(const std::string& key, uint64_t value) {
  SetRaw(key, std::to_string(value));
}

void JsonSummary::Set(const std::string& key, int64_t value) {
  SetRaw(key, std::to_string(value));
}

void JsonSummary::Set(const std::string& key, bool value) {
  SetRaw(key, value ? "true" : "false");
}

void JsonSummary::Set(const std::string& key, const std::string& value) {
  std::string encoded;
  AppendJsonString(&encoded, value);
  SetRaw(key, std::move(encoded));
}

void JsonSummary::Set(const std::string& key, const ArmSamples& arm) {
  Set(key + "_min", arm.stats.min);
  Set(key + "_median", arm.stats.median);
  Set(key + "_iqr", arm.iqr());
}

bool JsonSummary::Write() const {
  if (path_.empty()) return true;  // --json=none
  std::string body = "{\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    body += "  \"" + entries_[i].first + "\": " + entries_[i].second;
    if (i + 1 < entries_.size()) body += ",";
    body += "\n";
  }
  body += "}\n";
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench summary: cannot open %s\n", path_.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "bench summary: short write to %s\n", path_.c_str());
    return false;
  }
  std::printf("bench summary -> %s\n", path_.c_str());
  return true;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s)\n", paper_ref.c_str());
  std::printf("============================================================\n");
}

void PrintCompare(const std::string& what, const std::string& paper,
                  const std::string& measured) {
  std::printf("%-46s paper: %-18s here: %s\n", what.c_str(), paper.c_str(),
              measured.c_str());
}

obs::MetricsSnapshot SnapshotRegistry() {
  return obs::MetricsRegistry::Global().Snapshot();
}

double WallSecondsSince(const obs::MetricsSnapshot& before,
                        const std::string& name) {
  const obs::HistogramSnapshot* now = SnapshotRegistry().FindHistogram(name);
  const obs::HistogramSnapshot* prior = before.FindHistogram(name);
  const double grown_ns =
      (now == nullptr ? 0.0 : now->sum) - (prior == nullptr ? 0.0 : prior->sum);
  if (grown_ns <= 0) {
    // A zero reading would silently pass every "faster than" gate.
    std::fprintf(stderr, "%s recorded nothing (metrics disabled?)\n",
                 name.c_str());
    std::exit(1);
  }
  return grown_ns / 1e9;
}

void PrintRegistryOperatorRuntimes(const obs::MetricsSnapshot& snapshot,
                                   double min_share) {
  // Counter names carry the operator as a label:
  //   wsie.dataflow.operator.process_ns{op="annotate_gene_ml"}
  const std::string kPrefix = "wsie.dataflow.operator.process_ns{op=\"";
  struct Row {
    std::string op;
    uint64_t process_ns;
  };
  std::vector<Row> rows;
  double total_ns = 0;
  for (const obs::CounterSnapshot& c : snapshot.counters) {
    if (c.name.rfind(kPrefix, 0) != 0) continue;
    std::string op = c.name.substr(kPrefix.size());
    if (op.size() >= 2) op.resize(op.size() - 2);  // strip trailing "}
    rows.push_back({std::move(op), c.value});
    total_ns += static_cast<double>(c.value);
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.process_ns > b.process_ns; });
  std::printf("%-28s %12s %8s %14s %14s\n", "operator (registry)", "proc s",
              "share", "records in", "records out");
  for (const Row& row : rows) {
    double share =
        total_ns <= 0 ? 0.0 : static_cast<double>(row.process_ns) / total_ns;
    if (share < min_share) continue;
    uint64_t in = snapshot.CounterValue(
        obs::WithLabel("wsie.dataflow.operator.records_in", "op", row.op));
    uint64_t out = snapshot.CounterValue(
        obs::WithLabel("wsie.dataflow.operator.records_out", "op", row.op));
    std::printf("%-28s %12.3f %7.1f%% %14llu %14llu\n", row.op.c_str(),
                static_cast<double>(row.process_ns) / 1e9, 100 * share,
                static_cast<unsigned long long>(in),
                static_cast<unsigned long long>(out));
  }
}

}  // namespace wsie::bench
