#include <gtest/gtest.h>

#include <memory>

#include "core/analysis_context.h"
#include "core/analytics.h"
#include "core/operators_ie.h"
#include "core/pipeline.h"
#include "corpus/text_generator.h"
#include "obs/metrics.h"

namespace wsie::core {
namespace {

/// One shared (expensive-to-train) context for the whole test binary.
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AnalysisContextConfig config;
    config.crf_training_sentences = 300;
    config.pos_training_sentences = 1000;
    context_ = new std::shared_ptr<const AnalysisContext>(
        std::make_shared<const AnalysisContext>(config));
  }
  static void TearDownTestSuite() {
    delete context_;
    context_ = nullptr;
  }
  static ContextPtr context() { return *context_; }

  static std::vector<corpus::Document> MakeCorpus(corpus::CorpusKind kind,
                                                  size_t n, uint64_t seed) {
    corpus::TextGenerator generator(&context()->lexicons(),
                                    corpus::ProfileFor(kind), seed);
    return generator.GenerateCorpus(seed * 1000, n);
  }

  static std::shared_ptr<const AnalysisContext>* context_;
};

std::shared_ptr<const AnalysisContext>* CoreTest::context_ = nullptr;

// -------------------------------------------------------- AnalysisContext

TEST_F(CoreTest, GoldSentencesHaveSpans) {
  auto gold = AnalysisContext::MakeGoldSentences(
      context()->lexicons(), ie::EntityType::kDrug, 100, 5);
  EXPECT_EQ(gold.size(), 100u);
  size_t with_spans = 0;
  for (const auto& s : gold) {
    if (!s.spans.empty()) ++with_spans;
    for (const auto& span : s.spans) {
      EXPECT_LT(span.begin_token, span.end_token);
      EXPECT_LE(span.end_token, s.tokens.size());
    }
  }
  EXPECT_GT(with_spans, 10u);
}

TEST_F(CoreTest, CrfTaggersFindLexiconMentions) {
  // On fresh Medline-style text, the trained drug CRF should find most of
  // the gold drug mentions.
  auto docs = MakeCorpus(corpus::CorpusKind::kMedline, 20, 99);
  const ie::CrfTagger& tagger = context()->crf_tagger(ie::EntityType::kDrug);
  size_t gold_mentions = 0, found = 0;
  for (const auto& doc : docs) {
    for (const auto& span : context()->splitter().Split(doc.text)) {
      auto tokens = context()->tokenizer().Tokenize(
          std::string_view(doc.text).substr(span.begin, span.length()),
          span.begin);
      auto annotations = tagger.TagSentence(doc.id, 0, doc.text, tokens);
      for (const auto& g : doc.gold_entities) {
        if (g.type != ie::EntityType::kDrug || !g.from_lexicon) continue;
        if (g.begin < span.begin || g.end > span.begin + span.length())
          continue;
        ++gold_mentions;
        for (const auto& a : annotations) {
          if (a.begin <= g.begin && a.end >= g.end) {
            ++found;
            break;
          }
        }
      }
    }
  }
  ASSERT_GT(gold_mentions, 20u);
  EXPECT_GT(static_cast<double>(found) / static_cast<double>(gold_mentions),
            0.6);
}

TEST_F(CoreTest, DictionaryIsIncomplete) {
  const auto& tagger = context()->dictionary_tagger(ie::EntityType::kGene);
  EXPECT_LT(tagger.build_stats().dictionary_entries,
            context()->lexicons().genes().size());
  EXPECT_GT(tagger.build_stats().dictionary_entries,
            context()->lexicons().genes().size() / 2);
}

// -------------------------------------------------------- Flow building

TEST_F(CoreTest, FullFlowOperatorCount) {
  FlowOptions options;
  options.web_preprocessing = true;
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  // 3 web ops + sentences + 4 linguistic + pos + 6 entity + union = 16.
  EXPECT_EQ(plan.num_operators(), 16u);
}

TEST_F(CoreTest, PerEntityFlowSmaller) {
  FlowOptions options;
  options.linguistic_analysis = false;
  options.entity_types = {ie::EntityType::kDisease};
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  EXPECT_EQ(plan.num_operators(), 4u);  // sentences + pos + dict + ml
}

TEST_F(CoreTest, RunFlowProducesAnalyzedSink) {
  auto docs = MakeCorpus(corpus::CorpusKind::kMedline, 10, 7);
  FlowOptions options;
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  auto result = RunFlow(plan, docs, dataflow::ExecutorConfig{2, 0, 4});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->sink_outputs.at("analyzed").size(), 0u);
}

TEST_F(CoreTest, WebPreprocessingHandlesHtml) {
  // Wrap documents in simple HTML; web preprocessing strips it.
  auto docs = MakeCorpus(corpus::CorpusKind::kRelevantWeb, 4, 8);
  for (auto& doc : docs) {
    doc.text = "<html><body><div><p>" + doc.text +
               "</p></div><div><p><a href='/x'>Home About Contact Login "
               "Register</a></p></div></body></html>";
  }
  FlowOptions options;
  options.web_preprocessing = true;
  options.entity_annotation = false;
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  auto result = RunFlow(plan, docs, dataflow::ExecutorConfig{2, 0, 4});
  ASSERT_TRUE(result.ok());
  const auto& analyzed = result->sink_outputs.at("analyzed");
  ASSERT_FALSE(analyzed.empty());
  const std::string& text = analyzed[0].Field(kFieldText).AsString();
  EXPECT_EQ(text.find("<html>"), std::string::npos);
  EXPECT_EQ(text.find("Home About"), std::string::npos);  // boilerplate gone
}

TEST_F(CoreTest, DocumentsToRecordsSchema) {
  auto docs = MakeCorpus(corpus::CorpusKind::kPmc, 2, 9);
  auto records = DocumentsToRecords(docs);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].Field(kFieldId).AsInt(),
            static_cast<int64_t>(docs[0].id));
  EXPECT_EQ(records[0].Field(kFieldCorpus).AsString(), "PMC");
  EXPECT_EQ(records[0].Field(kFieldText).AsString(), docs[0].text);
}

TEST_F(CoreTest, PosOverflowSentencesAreCounted) {
  // The tokenizer peels trailing punctuation one character at a time, so
  // "x))...)." is over the POS cap in tokens yet under the splitter's
  // 2,000-character sentence limit.
  const std::string over_cap = "x" + std::string(1200, ')') + ".";
  std::vector<corpus::Document> docs(2);
  docs[0].id = 1;
  docs[0].text = over_cap + " A short sentence follows here. " + over_cap;
  docs[1].id = 2;
  docs[1].text = "Only one. " + over_cap;
  size_t expected = 0;
  for (const corpus::Document& doc : docs) {
    const std::string_view text = doc.text;
    for (const text::SentenceSpan& span : context()->splitter().Split(text)) {
      const size_t tokens =
          context()
              ->tokenizer()
              .Tokenize(text.substr(span.begin, span.length()))
              .size();
      if (tokens > context()->config().pos_max_tokens) ++expected;
    }
  }
  ASSERT_EQ(expected, 3u);

  obs::Counter* overflowed = obs::MetricsRegistry::Global().GetCounter(
      obs::WithLabel("wsie.quality.pos_overflow_sentences", "op",
                     "annotate_pos"));
  const uint64_t before = overflowed->Value();
  FlowOptions options;
  options.linguistic_analysis = false;
  options.dictionary_methods = false;
  options.ml_methods = false;
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  auto result = RunFlow(plan, docs, dataflow::ExecutorConfig{2, 0, 1});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(overflowed->Value() - before, expected);
  for (const dataflow::Record& r : result->sink_outputs.at("analyzed")) {
    EXPECT_TRUE(r.Field(kFieldPosOverflow).AsBool());
  }
}

// -------------------------------------------------------- War stories

TEST_F(CoreTest, PaperScaleFlowExceeds24GbNodes) {
  FlowOptions options;
  options.paper_scale_memory = true;
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  dataflow::ExecutorConfig config;
  config.memory_per_worker_budget = 24ull << 30;  // paper's nodes
  auto docs = MakeCorpus(corpus::CorpusKind::kMedline, 2, 10);
  auto result = RunFlow(plan, docs, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CoreTest, SplitFlowPartsFitBudget) {
  FlowOptions full;
  full.paper_scale_memory = true;
  auto parts = SplitFlowByMemory(full, 24ull << 30);
  ASSERT_GE(parts.size(), 4u);  // linguistic + >=3 entity parts
  // The gene part must have been split further (20 GB dict + 10 GB ML > 24).
  size_t gene_parts = 0;
  for (const auto& part : parts) {
    if (part.entity_annotation && part.entity_types.size() == 1 &&
        part.entity_types[0] == ie::EntityType::kGene) {
      ++gene_parts;
      EXPECT_FALSE(part.dictionary_methods && part.ml_methods);
    }
  }
  EXPECT_EQ(gene_parts, 2u);
}

TEST_F(CoreTest, LibraryConflictDetected) {
  FlowOptions options;
  options.linguistic_analysis = false;
  options.entity_types = {ie::EntityType::kDisease};
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  Status status = CheckLibraryConflicts(plan);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("opennlp"), std::string::npos);
}

TEST_F(CoreTest, NoConflictWithoutDiseaseMl) {
  FlowOptions options;
  options.entity_types = {ie::EntityType::kGene, ie::EntityType::kDrug};
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  EXPECT_TRUE(CheckLibraryConflicts(plan).ok());
}

TEST_F(CoreTest, AnnotationsInflateDataVolume) {
  auto docs = MakeCorpus(corpus::CorpusKind::kMedline, 10, 11);
  size_t input_bytes = 0;
  for (const auto& d : docs) input_bytes += d.text.size();
  FlowOptions options;
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  auto result = RunFlow(plan, docs, dataflow::ExecutorConfig{2, 0, 4});
  ASSERT_TRUE(result.ok());
  // Total bytes produced across the pipeline exceed the raw input — the
  // Sect. 4.2 network-pressure effect. Fused stages stream part of that
  // volume without materializing it; both shares are accounted.
  uint64_t produced =
      result->total_bytes_materialized + result->total_bytes_streamed;
  EXPECT_GT(produced, 2 * input_bytes);
  EXPECT_GT(result->total_bytes_materialized, input_bytes);
  EXPECT_GT(result->total_bytes_streamed, 0u);
}

TEST_F(CoreTest, DictionaryOpenCachedAcrossRuns) {
  // The Fig. 5 "hard lower bound": dictionary automaton construction runs
  // in Open(). With the process-wide cache, a second Run() of the same flow
  // must not pay it again — every operator reports a cached open.
  dataflow::Executor::ClearOpenCache();
  auto docs = MakeCorpus(corpus::CorpusKind::kMedline, 4, 21);
  FlowOptions options;
  options.linguistic_analysis = false;  // entity flow: dict + ML taggers
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  auto first = RunFlow(plan, docs, dataflow::ExecutorConfig{2, 0, 4});
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->open_cold, 0u);
  EXPECT_EQ(first->open_cached, 0u);
  auto second = RunFlow(plan, docs, dataflow::ExecutorConfig{2, 0, 4});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->open_cold, 0u);
  EXPECT_EQ(second->open_cached, first->open_cold);
  for (const auto& s : second->operator_stats) {
    EXPECT_TRUE(s.open_cached) << s.name;
    EXPECT_EQ(s.open_seconds, 0.0) << s.name;
  }
  dataflow::Executor::ClearOpenCache();
}

// -------------------------------------------------------- Analytics

TEST_F(CoreTest, AnalyzeRecordsMergesBranches) {
  auto docs = MakeCorpus(corpus::CorpusKind::kMedline, 8, 12);
  FlowOptions options;
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  auto result = RunFlow(plan, docs, dataflow::ExecutorConfig{2, 0, 4});
  ASSERT_TRUE(result.ok());
  CorpusAnalysis analysis = AnalyzeRecords(
      corpus::CorpusKind::kMedline, result->sink_outputs.at("analyzed"));
  // Union emits 2 records per doc; analysis merges to one entry per doc.
  EXPECT_EQ(analysis.num_docs(), docs.size());
  EXPECT_GT(analysis.total_sentences, 0u);
  EXPECT_GT(analysis.mean_chars(), 100.0);
  // Both linguistic and entity measures present after the merge.
  uint64_t negations = 0, entities = 0;
  for (const auto& d : analysis.per_doc) {
    negations += d.negations;
    for (const auto& by_type : d.entities) {
      entities += by_type[0] + by_type[1];
    }
  }
  EXPECT_GT(negations, 0u);
  EXPECT_GT(entities, 0u);
}

TEST_F(CoreTest, TlaFilterReducesMlGeneNames) {
  auto docs = MakeCorpus(corpus::CorpusKind::kRelevantWeb, 8, 13);
  FlowOptions with_filter;
  with_filter.linguistic_analysis = false;
  with_filter.entity_types = {ie::EntityType::kGene};
  with_filter.tla_filter = true;
  FlowOptions without_filter = with_filter;
  without_filter.tla_filter = false;

  auto run = [&](const FlowOptions& options) {
    dataflow::Plan plan = BuildAnalysisFlow(context(), options);
    auto result = RunFlow(plan, docs, dataflow::ExecutorConfig{2, 0, 4});
    EXPECT_TRUE(result.ok());
    return AnalyzeRecords(corpus::CorpusKind::kRelevantWeb,
                          result->sink_outputs.at("analyzed"));
  };
  CorpusAnalysis unfiltered = run(without_filter);
  CorpusAnalysis filtered = run(with_filter);
  EXPECT_LT(filtered.DistinctNames(0, 1), unfiltered.DistinctNames(0, 1));
}

TEST(AnalyticsTest, VennComputesAllRegions) {
  std::array<std::set<std::string>, 4> sets;
  sets[0] = {"a", "ab", "abcd"};
  sets[1] = {"b", "ab", "abcd"};
  sets[2] = {"c", "abcd"};
  sets[3] = {"d", "abcd"};
  auto regions = ComputeOverlap(sets);
  EXPECT_EQ(regions.size(), 15u);
  double total_share = 0.0;
  uint64_t total_count = 0;
  for (const auto& region : regions) {
    total_share += region.share;
    total_count += region.count;
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);
  EXPECT_EQ(total_count, 6u);  // distinct names across all sets
  // The all-four region holds exactly "abcd".
  for (const auto& region : regions) {
    if (region.membership == 0xF) {
      EXPECT_EQ(region.count, 1u);
    }
    if (region.membership == 0x3) {
      EXPECT_EQ(region.count, 1u);  // "ab"
    }
  }
}

TEST(AnalyticsTest, VennEmptySets) {
  std::array<std::set<std::string>, 4> sets;
  auto regions = ComputeOverlap(sets);
  for (const auto& region : regions) {
    EXPECT_EQ(region.count, 0u);
    EXPECT_EQ(region.share, 0.0);
  }
}

TEST_F(CoreTest, JsdBetweenCorporaSymmetric) {
  auto rel_docs = MakeCorpus(corpus::CorpusKind::kRelevantWeb, 6, 14);
  auto irrel_docs = MakeCorpus(corpus::CorpusKind::kIrrelevantWeb, 6, 15);
  FlowOptions options;
  options.linguistic_analysis = false;
  dataflow::Plan plan = BuildAnalysisFlow(context(), options);
  auto rel = RunFlow(plan, rel_docs, dataflow::ExecutorConfig{2, 0, 4});
  auto irrel = RunFlow(plan, irrel_docs, dataflow::ExecutorConfig{2, 0, 4});
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(irrel.ok());
  auto a = AnalyzeRecords(corpus::CorpusKind::kRelevantWeb,
                          rel->sink_outputs.at("analyzed"));
  auto b = AnalyzeRecords(corpus::CorpusKind::kIrrelevantWeb,
                          irrel->sink_outputs.at("analyzed"));
  double ab = EntityDistributionJsd(a, b, 0, 0);
  double ba = EntityDistributionJsd(b, a, 0, 0);
  EXPECT_NEAR(ab, ba, 1e-9);
  EXPECT_GT(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

// One synthetic analyzed record carrying the given (type, method, surface)
// entity annotations, shaped like the "analyzed" sink output.
dataflow::Record MakeEntityRecord(
    int64_t doc_id,
    const std::vector<std::array<std::string, 3>>& annotations) {
  dataflow::Record record;
  record.SetField(kFieldId, doc_id);
  record.SetField(kFieldText, "synthetic");
  dataflow::Value::Array entities;
  for (const auto& [type, method, surface] : annotations) {
    dataflow::Value entity;
    entity.SetField("type", type);
    entity.SetField("method", method);
    entity.SetField("surface", surface);
    entity.SetField("b", 0);
    entity.SetField("e", 1);
    entities.push_back(std::move(entity));
  }
  record.SetField(kFieldEntities, dataflow::Value(std::move(entities)));
  return record;
}

// Regression: DistinctNames(t, 0) + DistinctNames(t, 1) double-counts names
// found by both methods; the "all methods" accessor must count the union.
TEST(AnalyticsTest, CombinedDistinctDoesNotDoubleCount) {
  dataflow::Dataset analyzed;
  analyzed.push_back(MakeEntityRecord(
      1, {{"gene", "dict", "braf"},    // found by both methods (and as an
          {"gene", "ml", "BRAF"},      // uppercase variant: same name after
          {"gene", "dict", "kras"}})); // normalization)
  analyzed.push_back(MakeEntityRecord(2, {{"gene", "ml", "tp53"},
                                          {"drug", "dict", "aspirin"},
                                          {"bogus-type", "dict", "x"},
                                          {"gene", "bogus-method", "y"}}));
  CorpusAnalysis analysis =
      AnalyzeRecords(corpus::CorpusKind::kMedline, analyzed);

  EXPECT_EQ(analysis.DistinctNames(0, 0), 2u);  // braf, kras
  EXPECT_EQ(analysis.DistinctNames(0, 1), 2u);  // braf, tp53
  // Naive sum says 4; braf was found by both methods, so the union is 3.
  EXPECT_EQ(analysis.DistinctNamesAllMethods(0), 3u);
  EXPECT_EQ(analysis.DistinctNamesAllMethods(1), 1u);  // aspirin
  EXPECT_EQ(analysis.DistinctNamesAllMethods(2), 0u);
  // Occurrence counts survive the flat-map swap, including normalization.
  EXPECT_EQ(analysis.names[0][0].Count("braf"), 1u);
  EXPECT_EQ(analysis.names[0][1].Count("braf"), 1u);
  EXPECT_GT(analysis.NameTableMemoryBytes(), 0u);
}

// -------------------------------------------------------- Meteor bridge

TEST_F(CoreTest, MeteorScriptDrivesDomainOperators) {
  dataflow::OperatorRegistry registry;
  RegisterPipelineOperators(context(), &registry);
  EXPECT_GE(registry.size(), 10u);
  dataflow::MeteorParser parser(&registry);
  auto plan = parser.Parse(R"(
    $docs  = read 'docs';
    $sent  = annotate_sentences $docs;
    $neg   = find_negation $sent;
    $drugs = annotate_entities $neg type 'drug' method 'dict';
    write $drugs 'out';
  )");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto docs = MakeCorpus(corpus::CorpusKind::kMedline, 5, 16);
  dataflow::Executor executor(dataflow::ExecutorConfig{2, 0, 4});
  std::map<std::string, dataflow::Dataset> sources;
  sources["docs"] = DocumentsToRecords(docs);
  auto result = executor.Run(plan.value(), sources);
  ASSERT_TRUE(result.ok());
  const auto& out = result->sink_outputs.at("out");
  ASSERT_EQ(out.size(), docs.size());
  size_t entities = 0;
  for (const auto& r : out) entities += r.Field(kFieldEntities).AsArray().size();
  EXPECT_GT(entities, 0u);
}

}  // namespace
}  // namespace wsie::core
