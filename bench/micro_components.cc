// google-benchmark micro-benchmarks for the core components: automaton
// dictionary matching, CRF decoding, HMM POS tagging, tokenization,
// sentence splitting, boilerplate detection, Naive Bayes, and JSD.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "corpus/lexicon.h"
#include "corpus/text_generator.h"
#include "html/boilerplate.h"
#include "ie/crf_tagger.h"
#include "ie/dictionary_tagger.h"
#include "ml/naive_bayes.h"
#include "ml/stats.h"
#include "nlp/pos_tagger.h"
#include "text/bag_of_words.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

// Heap-allocation probe: every global operator new in this binary bumps a
// counter, so benchmarks can report allocations-per-token for the tagger
// paths.
static std::atomic<uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace wsie;

const corpus::EntityLexicons& Lexicons() {
  static const corpus::EntityLexicons* kLexicons =
      new corpus::EntityLexicons(corpus::LexiconConfig{3000, 400, 400, 5});
  return *kLexicons;
}

std::string SampleText(size_t approx_chars) {
  static std::string* kText = [] {
    corpus::TextGenerator generator(
        &Lexicons(), corpus::ProfileFor(corpus::CorpusKind::kMedline), 9);
    auto* text = new std::string();
    while (text->size() < 1 << 20) {
      *text += generator.GenerateDocument(text->size()).text;
      *text += "\n";
    }
    return text;
  }();
  return kText->substr(0, approx_chars);
}

void BM_Tokenizer(benchmark::State& state) {
  std::string text = SampleText(static_cast<size_t>(state.range(0)));
  text::Tokenizer tokenizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_Tokenizer)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_SentenceSplitter(benchmark::State& state) {
  std::string text = SampleText(static_cast<size_t>(state.range(0)));
  text::SentenceSplitter splitter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(splitter.Split(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_SentenceSplitter)->Arg(1 << 14)->Arg(1 << 17);

void BM_DictionaryBuild(benchmark::State& state) {
  std::vector<std::string> dict(
      Lexicons().genes().begin(),
      Lexicons().genes().begin() + state.range(0));
  for (auto _ : state) {
    ie::DictionaryTagger tagger(ie::EntityType::kGene, dict);
    benchmark::DoNotOptimize(tagger.build_stats().automaton_nodes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DictionaryBuild)->Arg(500)->Arg(1500)->Arg(3000);

void BM_DictionaryTag(benchmark::State& state) {
  static const ie::DictionaryTagger* kTagger =
      new ie::DictionaryTagger(ie::EntityType::kGene, Lexicons().genes());
  std::string text = SampleText(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kTagger->Tag(1, text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_DictionaryTag)->Arg(1 << 12)->Arg(1 << 16);

const ie::CrfTagger& CrfBenchTagger() {
  static const ie::CrfTagger* kTagger = [] {
    auto* tagger = new ie::CrfTagger(ie::EntityType::kGene, 1 << 16);
    corpus::TextGenerator generator(
        &Lexicons(), corpus::ProfileFor(corpus::CorpusKind::kMedline), 10);
    // Quick training on tokenized sentences without gold (labels all O) is
    // useless; reuse a tiny shape-based gold instead.
    std::vector<ie::TaggedSentence> gold;
    for (int i = 0; i < 50; ++i) {
      auto doc = generator.GenerateDocument(i);
      // MakeTaggedSentence pins the text: tokens are views, and a temporary
      // substr would dangle the moment it was destroyed.
      gold.push_back(ie::MakeTaggedSentence(
          std::string_view(doc.text).substr(0, 200)));
    }
    ml::CrfTrainOptions options;
    options.epochs = 2;
    tagger->Train(gold, options);
    return tagger;
  }();
  return *kTagger;
}

const nlp::PosTagger& PosBenchTagger() {
  static const nlp::PosTagger* kTagger = [] {
    auto* tagger = new nlp::PosTagger();
    tagger->TrainDefault(3, 2000);
    return tagger;
  }();
  return *kTagger;
}

/// tokens/sec + allocations-per-token counters for the tagger benchmarks.
/// `allocs` is the heap-probe delta over the whole timed loop.
void SetTokenCounters(benchmark::State& state, size_t tokens_per_iter,
                      uint64_t allocs) {
  double tokens_done = static_cast<double>(state.iterations()) *
                       static_cast<double>(tokens_per_iter);
  state.SetItemsProcessed(static_cast<int64_t>(tokens_done));
  state.counters["tokens_per_sec"] =
      benchmark::Counter(tokens_done, benchmark::Counter::kIsRate);
  state.counters["allocs_per_token"] =
      benchmark::Counter(static_cast<double>(allocs) / tokens_done);
}

void BM_CrfTag(benchmark::State& state) {
  const ie::CrfTagger& tagger = CrfBenchTagger();
  std::string text = SampleText(static_cast<size_t>(state.range(0)));
  text::Tokenizer tokenizer;
  auto tokens = tokenizer.Tokenize(text);
  tagger.TagSentence(1, 0, text, tokens);  // warm thread-local scratch
  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tagger.TagSentence(1, 0, text, tokens));
  }
  SetTokenCounters(state, tokens.size(),
                   g_heap_allocs.load(std::memory_order_relaxed) - before);
}
BENCHMARK(BM_CrfTag)->Arg(256)->Arg(1024);

void BM_PosTag(benchmark::State& state) {
  const nlp::PosTagger& tagger = PosBenchTagger();
  std::string text = SampleText(static_cast<size_t>(state.range(0)));
  text::Tokenizer tokenizer;
  auto tokens = tokenizer.Tokenize(text);
  tagger.TagTokens(tokens);  // warm thread-local scratch
  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tagger.TagTokens(tokens));
  }
  SetTokenCounters(state, tokens.size(),
                   g_heap_allocs.load(std::memory_order_relaxed) - before);
}
BENCHMARK(BM_PosTag)->Arg(256)->Arg(1024)->Arg(4096);

// CRF feature extraction in isolation: streamed component hashes (equal to
// the hashes of the concatenated feature strings, golden-tested in
// tests/hotpath_test.cc).
void BM_NerFeaturesStreamed(benchmark::State& state) {
  std::string text = SampleText(static_cast<size_t>(state.range(0)));
  text::Tokenizer tokenizer;
  auto tokens = tokenizer.Tokenize(text);
  ml::HashedFeatureMatrix features;
  ie::ExtractNerFeaturesInto(tokens, &features);  // warm scratch
  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    ie::ExtractNerFeaturesInto(tokens, &features);
    benchmark::DoNotOptimize(features.num_positions());
  }
  SetTokenCounters(state, tokens.size(),
                   g_heap_allocs.load(std::memory_order_relaxed) - before);
}
BENCHMARK(BM_NerFeaturesStreamed)->Arg(256)->Arg(1024);

void BM_Boilerplate(benchmark::State& state) {
  std::string content = SampleText(static_cast<size_t>(state.range(0)));
  std::string html = "<html><body><div class='nav'><ul>";
  for (int i = 0; i < 20; ++i) {
    html += "<li><a href='/p" + std::to_string(i) + "'>Link</a></li>";
  }
  html += "</ul></div><div><p>" + content + "</p></div></body></html>";
  html::BoilerplateDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.NetText(html));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_Boilerplate)->Arg(1 << 12)->Arg(1 << 16);

void BM_NaiveBayesPredict(benchmark::State& state) {
  static const ml::NaiveBayesClassifier* kModel = [] {
    auto* model = new ml::NaiveBayesClassifier({"rel", "irrel"});
    text::BagOfWords bow;
    corpus::TextGenerator rel(
        &Lexicons(), corpus::ProfileFor(corpus::CorpusKind::kMedline), 11);
    corpus::TextGenerator irrel(
        &Lexicons(), corpus::ProfileFor(corpus::CorpusKind::kIrrelevantWeb),
        12);
    for (int i = 0; i < 100; ++i) {
      model->Update(0, bow.Featurize(rel.GenerateDocument(i).text));
      model->Update(1, bow.Featurize(irrel.GenerateDocument(i).text));
    }
    return model;
  }();
  text::BagOfWords bow;
  text::TermCounts features =
      bow.Featurize(SampleText(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kModel->PredictProbabilities(features));
  }
}
BENCHMARK(BM_NaiveBayesPredict)->Arg(1 << 12)->Arg(1 << 15);

void BM_JensenShannon(benchmark::State& state) {
  std::map<std::string, uint64_t> a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a["name" + std::to_string(i)] = static_cast<uint64_t>(i % 17 + 1);
    b["name" + std::to_string(i + state.range(0) / 2)] =
        static_cast<uint64_t>(i % 13 + 1);
  }
  ml::Distribution pa = ml::NormalizeCounts(a);
  ml::Distribution pb = ml::NormalizeCounts(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::JensenShannonDivergence(pa, pb));
  }
}
BENCHMARK(BM_JensenShannon)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
