// analyze: the Fig. 2 analysis flow over the four generated corpora
// (relevant web, irrelevant web, Medline, PMC at the repository's bench
// size ratios) at DoP = core count with a StoreSink: one Append per
// corpus, then Compact, then BuildVectorIndex, into a fresh store per
// pass. POS/CRF dominate the flow and the vector build is a large share of
// the pass; crawler and serve stay idle.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis_context.h"
#include "core/analytics.h"
#include "core/pipeline.h"
#include "corpus/profile.h"
#include "corpus/text_generator.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "store/annotation_store.h"
#include "store/store_sink.h"
#include "workloads.h"

namespace wsie::perfbench {

namespace {

constexpr int kSetupReps = 5;
constexpr size_t kRecallSample = 200;
constexpr double kMinRecall = 0.95;

/// Corpus sizes: the repository benches' default document-count ratios
/// (bench/bench_util.h BenchScale: 50/90/250/35) at 0.3x, held as a text
/// budget of `docs` x the profile's mean document length, so every seed
/// analyzes the same amount of text (ten PMC documents alone would vary by
/// about 10%). One pass takes about half a second on a 4-core host.
struct CorpusSize {
  corpus::CorpusKind kind;
  size_t docs;
};
constexpr CorpusSize kCorpora[] = {
    {corpus::CorpusKind::kRelevantWeb, 15},
    {corpus::CorpusKind::kIrrelevantWeb, 27},
    {corpus::CorpusKind::kMedline, 75},
    {corpus::CorpusKind::kPmc, 10},
};

/// Operator -> the module that implements its work.
const std::map<std::string, std::string>& OperatorLayers() {
  static const std::map<std::string, std::string> layers = {
      {"annotate_sentences", "text"},   {"find_negation", "nlp"},
      {"find_pronouns", "nlp"},         {"find_parentheses", "nlp"},
      {"find_abbreviations", "nlp"},    {"annotate_pos", "nlp"},
      {"annotate_gene_dict", "ie"},     {"annotate_drug_dict", "ie"},
      {"annotate_disease_dict", "ie"},  {"annotate_gene_ml", "ie"},
      {"annotate_drug_ml", "ie"},       {"annotate_disease_ml", "ie"},
      {"union_results", "dataflow"},    {"store_sink", "store"},
  };
  return layers;
}

/// DoP = cores, one document per morsel: the corpora are small, so larger
/// morsels would leave workers idle on the long PMC documents.
dataflow::ExecutorConfig ExecutorConfigFor(const Options& options) {
  dataflow::ExecutorConfig config(options.threads, 0, 1);
  config.morsel_records = 1;
  return config;
}

struct AnalyzeEnv {
  core::ContextPtr context;
  std::vector<std::pair<corpus::CorpusKind, std::vector<corpus::Document>>>
      corpora;
  dataflow::Plan plan;
  std::shared_ptr<store::StoreSink> sink;
};

bool SetUp(uint64_t seed, AnalyzeEnv* env) {
  core::AnalysisContextConfig config;
  config.crf_training_sentences = 700;
  config.pos_training_sentences = 1000;
  config.seed = 4242 + seed;
  env->context = std::make_shared<const core::AnalysisContext>(config);
  env->corpora.clear();
  uint64_t corpus_seed = seed * 16 + 1;
  for (const CorpusSize& c : kCorpora) {
    const corpus::CorpusProfile profile = corpus::ProfileFor(c.kind);
    corpus::TextGenerator generator(&env->context->lexicons(), profile,
                                    corpus_seed);
    const uint64_t budget = c.docs * profile.mean_doc_chars;
    std::vector<corpus::Document> docs;
    for (uint64_t chars = 0, id = corpus_seed * 100000; chars < budget; ++id) {
      docs.push_back(generator.GenerateDocument(id));
      chars += docs.back().text.size();
    }
    env->corpora.emplace_back(c.kind, std::move(docs));
    ++corpus_seed;
  }
  env->plan = core::BuildAnalysisFlow(env->context, core::FlowOptions{});
  env->sink = std::make_shared<store::StoreSink>();
  return store::AttachStoreSink(&env->plan, env->sink) !=
         dataflow::Plan::kInvalidNode;
}

/// Every (corpus, type, method) frequency cell the store serves, flattened:
/// distinct names, annotations, sentences and the per-1000 value's bits.
std::vector<uint64_t> FrequencyCells(const serve::QueryEngine& engine) {
  std::vector<uint64_t> cells;
  for (const CorpusSize& c : kCorpora) {
    for (int type = 0; type < 3; ++type) {
      for (int method : {0, 1, serve::kAny}) {
        const auto f = engine.CorpusFrequency(static_cast<int>(c.kind), type,
                                              method);
        uint64_t bits = 0;
        std::memcpy(&bits, &f.per_1000_sentences, sizeof(bits));
        cells.insert(cells.end(),
                     {f.distinct_names, f.annotations, f.sentences, bits});
      }
    }
  }
  return cells;
}

/// The same cells computed in memory by core::AnalyzeRecords.
void AppendAnalysisCells(const core::CorpusAnalysis& a,
                         std::vector<uint64_t>* cells) {
  for (size_t type = 0; type < 3; ++type) {
    uint64_t all_annotations = 0;
    for (size_t method = 0; method < 2; ++method) {
      uint64_t annotations = 0;
      a.names[type][method].ForEach(
          [&](std::string_view, uint64_t count) { annotations += count; });
      all_annotations += annotations;
      const double per_1000 = a.EntitiesPer1000Sentences(type, method);
      uint64_t bits = 0;
      std::memcpy(&bits, &per_1000, sizeof(bits));
      cells->insert(cells->end(), {a.DistinctNames(type, method), annotations,
                                   a.total_sentences, bits});
    }
    const double per_1000 = a.EntitiesPer1000SentencesAllMethods(type);
    uint64_t bits = 0;
    std::memcpy(&bits, &per_1000, sizeof(bits));
    cells->insert(cells->end(), {a.DistinctNamesAllMethods(type),
                                 all_annotations, a.total_sentences, bits});
  }
}

/// recall@10 of the served Similar() against an exact scan, over a sample
/// of indexed names.
double SimilarRecall(const serve::QueryEngine& engine,
                     const store::AnnotationStore& annotations) {
  const auto snapshot = annotations.snapshot();
  if (snapshot.vectors == nullptr || snapshot.vectors->size() < 2) return 0.0;
  const vec::VecIndex& index = *snapshot.vectors;
  const size_t step = std::max<size_t>(1, index.size() / kRecallSample);
  uint64_t hits = 0, possible = 0;
  for (size_t i = 0; i < index.size(); i += step) {
    const auto served = engine.Similar(index.name(i), 10);
    for (const auto& truth : index.SearchExact(index.vector(i), 11)) {
      if (truth.id == i) continue;
      ++possible;
      for (const auto& hit : served.neighbors) {
        if (hit.name == index.name(truth.id)) {
          ++hits;
          break;
        }
      }
    }
  }
  return possible == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(possible);
}

struct PassResult {
  double seconds = 0.0;
  uint64_t tokens = 0;
  uint64_t bytes_appended = 0;
  std::vector<uint64_t> cells;           ///< served by the store
  std::vector<uint64_t> analysis_cells;  ///< only when verifying
  double recall = 0.0;                   ///< only when verifying
};

/// One pass: raw documents to a compacted, vector-indexed store. Returns
/// false on a library error (reported on stderr).
bool RunPass(const AnalyzeEnv& env, const Options& options, bool verify,
             PassResult* out) {
  const std::string dir = options.work_dir + "/analyze-store";
  {
    Span s("bench.cleanup");
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  obs::Counter* tokens = obs::MetricsRegistry::Global().GetCounter(
      obs::WithLabel("wsie.nlp.tokens", "op", "annotate_sentences"));
  const uint64_t tokens_before = tokens->Value();
  const auto start = Clock::now();
  std::shared_ptr<store::AnnotationStore> annotations;
  {
    Span s("store.open");
    auto opened = store::AnnotationStore::Open(dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "store open failed: %s\n",
                   opened.status().ToString().c_str());
      return false;
    }
    annotations = *opened;
  }
  for (const auto& [kind, docs] : env.corpora) {
    auto result = [&] {
      Span s("core.run_flow", SpanTrace::Global().NewRequestId());
      return core::RunFlow(env.plan, docs, ExecutorConfigFor(options));
    }();
    if (!result.ok()) {
      std::fprintf(stderr, "flow failed: %s\n",
                   result.status().ToString().c_str());
      return false;
    }
    const uint64_t bytes_before = annotations->total_bytes();
    Status flushed;
    {
      Span s("store.flush");
      flushed = env.sink->FlushTo(annotations.get());
    }
    if (!flushed.ok()) {
      std::fprintf(stderr, "flush failed: %s\n", flushed.ToString().c_str());
      return false;
    }
    out->bytes_appended += annotations->total_bytes() - bytes_before;
    if (verify) {
      Span s("bench.verify");
      AppendAnalysisCells(
          core::AnalyzeRecords(kind, result->sink_outputs.at("analyzed")),
          &out->analysis_cells);
    }
    Span s("dataflow.release");  // frees the flow's output records
    result = Status::Aborted("released");
  }
  Status status;
  {
    Span s("store.compact");
    status = annotations->Compact();
  }
  if (status.ok()) {
    Span s("vec.build");
    status = annotations->BuildVectorIndex();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "compact/index failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  out->seconds = SecondsSince(start);
  out->tokens = tokens->Value() - tokens_before;
  {
    Span s("bench.verify");
    serve::QueryEngine engine(annotations);
    out->cells = FrequencyCells(engine);
    if (verify) out->recall = SimilarRecall(engine, *annotations);
  }
  Span s("store.close");
  annotations.reset();
  return true;
}

double HistogramSumDiff(const obs::MetricsSnapshot& before,
                        const obs::MetricsSnapshot& after, const char* name) {
  const auto* a = after.FindHistogram(name);
  const auto* b = before.FindHistogram(name);
  return (a ? a->sum : 0.0) - (b ? b->sum : 0.0);
}

}  // namespace

int RunAnalyze(const Options& options, Report* report) {
  AnalyzeEnv env;
  bool planned = true;
  report->e2e.setup_s = MedianSetupSeconds(
      kSetupReps, [&] { planned = SetUp(options.seed, &env); });
  if (!planned) {
    std::fprintf(stderr, "no 'analyzed' sink to attach the store to\n");
    return 1;
  }

  // Warm-up pass: opens every operator once (lazy dictionaries) and is
  // checked in full against the in-memory analysis.
  PassResult reference;
  if (!RunPass(env, options, /*verify=*/true, &reference)) return 1;
  report->Check(reference.cells == reference.analysis_cells,
                "store CorpusFrequency cells equal core::AnalyzeRecords");
  report->Check(reference.recall >= kMinRecall,
                "Similar recall@10 >= 0.95 against an exact scan");
  report->Check(reference.tokens > 0, "the flow tokenized the corpora");
  std::fprintf(stderr,
               "analyze: warm-up pass %.3f s, %llu tokens, %.1f KB appended, "
               "recall@10 %.4f\n",
               reference.seconds,
               static_cast<unsigned long long>(reference.tokens),
               static_cast<double>(reference.bytes_appended) / 1024.0,
               reference.recall);

  auto check_pass = [&](const PassResult& pass) {
    report->CountOps(1, 0);
    report->Check(pass.cells == reference.cells,
                  "store cells equal the verified warm-up pass");
    report->Check(pass.tokens == reference.tokens,
                  "token count equals the warm-up pass");
  };

  // Rates are medians over passes, so one pass slowed by the host does not
  // move them.
  std::vector<double> op_us, tokens_per_s, mb_per_s;
  const auto window = Clock::now();
  while (op_us.empty() || SecondsSince(window) < options.seconds) {
    PassResult pass;
    if (!RunPass(env, options, false, &pass)) return 1;
    check_pass(pass);
    op_us.push_back(pass.seconds * 1e6);
    tokens_per_s.push_back(static_cast<double>(pass.tokens) / pass.seconds);
    mb_per_s.push_back(static_cast<double>(pass.bytes_appended) / 1e6 /
                       pass.seconds);
  }
  report->e2e.units_per_s = Median(tokens_per_s);
  report->e2e.op_us = Summarize(op_us);
  report->e2e.out_mb_per_s = Median(mb_per_s);
  if (!options.trace) return 0;

  auto& trace = SpanTrace::Global();
  auto& registry = obs::MetricsRegistry::Global();
  trace.SetEnabled(true);
  uint64_t root_id = 0;
  size_t passes = 0;
  std::vector<double> traced_tokens_per_s;
  obs::MetricsSnapshot before, after;
  {
    Span root("root.analyze", trace.NewRequestId());
    root_id = root.id();
    {
      Span s("obs.snapshot");
      before = registry.Snapshot();
    }
    const auto traced_window = Clock::now();
    while (passes == 0 || SecondsSince(traced_window) < options.seconds) {
      PassResult pass;
      if (!RunPass(env, options, false, &pass)) return 1;
      check_pass(pass);
      ++passes;
      traced_tokens_per_s.push_back(static_cast<double>(pass.tokens) /
                                    pass.seconds);
    }
    Span s("obs.snapshot");
    after = registry.Snapshot();
  }
  trace.SetEnabled(false);
  std::vector<SpanRecord> spans = trace.Drain();
  WriteTrace(options, spans);

  const double n = static_cast<double>(passes);
  std::map<std::string, double> span_s;
  for (const SpanRecord& s : spans) {
    span_s[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  auto counter_per_pass = [&](const char* prefix) {
    return static_cast<double>(after.CounterPrefixSum(prefix) -
                               before.CounterPrefixSum(prefix)) /
           n;
  };
  const double dop = static_cast<double>(options.threads);
  const double run_wall_s =
      HistogramSumDiff(before, after, "wsie.dataflow.run.wall_ns") / 1e9;
  std::map<std::string, double> layer_busy_s;  // thread-seconds
  double busy_total_s = 0.0;
  double pos_s = 0.0;
  for (const auto& [op, layer] : OperatorLayers()) {
    const std::string name = obs::WithLabel(
        "wsie.dataflow.operator.process_ns", "op", op);
    const double seconds = static_cast<double>(after.CounterValue(name) -
                                               before.CounterValue(name)) /
                           1e9;
    report->SetLayer("dataflow.op." + op + ".process_s", seconds / n);
    layer_busy_s[layer] += seconds;
    busy_total_s += seconds;
    if (op == "annotate_pos") pos_s = seconds;
  }
  const double tokens_per_pass = counter_per_pass("wsie.nlp.tokens");
  report->SetLayer("core.run_flow_s", span_s["core.run_flow"] / n);
  report->SetLayer("nlp.pos_ns_per_token",
                   tokens_per_pass > 0 ? pos_s / n * 1e9 / tokens_per_pass
                                       : 0.0);
  report->SetLayer("dataflow.busy_frac",
                   run_wall_s > 0 ? busy_total_s / (run_wall_s * dop) : 0.0);
  report->SetLayer("nlp.tokens", tokens_per_pass);
  report->SetLayer("nlp.sentences", counter_per_pass("wsie.nlp.sentences"));
  report->SetLayer("ie.annotations", counter_per_pass("wsie.ie.annotations"));
  report->SetLayer("ie.entities", counter_per_pass("wsie.ie.entities"));
  report->SetLayer("dataflow.open.cold",
                   counter_per_pass("wsie.dataflow.open.cold"));
  report->SetLayer("dataflow.open.cached",
                   counter_per_pass("wsie.dataflow.open.cached"));
  report->SetLayer("store.flush_s", span_s["store.flush"] / n);
  report->SetLayer("store.compact_s", span_s["store.compact"] / n);
  report->SetLayer("vec.build_s", span_s["vec.build"] / n);
  report->SetLayer(
      "vec.build.embed_s",
      HistogramSumDiff(before, after, "wsie.vec.build.embed_wall_ns") / 1e9 /
          n);
  report->SetLayer(
      "vec.build.graph_s",
      HistogramSumDiff(before, after, "wsie.vec.build.graph_wall_ns") / 1e9 /
          n);
  report->SetLayer("vec.recall_at_10", reference.recall);
  report->SetLayer("obs.series", static_cast<double>(registry.num_metrics()));

  // RunFlow is opaque from outside: split the executor's wall time by the
  // registry's per-operator process time (thread-seconds / DoP); the
  // executor's idle and scheduling time stays with dataflow, and RunFlow's
  // time outside the executor (record conversion) with core.
  LayerTable table = BuildLayerTable(spans, root_id);
  std::map<std::string, double> shares;
  for (const auto& [layer, seconds] : layer_busy_s) {
    shares[layer] += seconds / dop;
  }
  shares["dataflow"] += run_wall_s - busy_total_s / dop;
  table.Reattribute("core", shares);
  const double overhead =
      report->e2e.units_per_s / Median(traced_tokens_per_s) - 1.0;
  report->SetLayerTable(table, overhead);
  PrintLayerTable(options.workload, table, overhead);
  return 0;
}

}  // namespace wsie::perfbench
