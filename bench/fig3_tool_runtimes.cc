// Reproduces Fig. 3: runtimes of the IE tools with respect to input length.
// (a) POS tagging: linear in principle, with fluctuations; pathological
//     sentences can exceed the tagger's hard limit (the crash mode — here a
//     controlled overflow instead of a crash).
// (b) NER: dictionary- and ML-based methods differ by orders of magnitude
//     ("up to three orders of magnitude", Sect. 4.2). Also reports the
//     sentence-length-cap ablation of Sect. 5.
// Additionally gates the allocation-free hot path: the view-token POS+NER
// stage must run >= 1.5x the tokens/sec of the seed path (legacy HMM decode
// + materialized CRF feature strings) and allocate ~0 heap blocks per token.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "ml/crf.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

// Heap-allocation probe for the allocations-per-token gate: every global
// operator new in this binary bumps a counter.
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

int main(int argc, char** argv) {
  using namespace wsie;
  bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv);
  bench::PrintHeader("Fig. 3: Tool runtimes vs. input length",
                     "Figure 3 (a) and (b)");
  bench::BenchScale scale;
  scale.relevant_docs = 40;
  scale.irrelevant_docs = 1;
  scale.medline_docs = 120;
  scale.pmc_docs = 20;
  bench::BenchEnv env = bench::MakeBenchEnv(scale);

  // Collect sentences of many lengths from web + pmc corpora.
  struct SentenceSample {
    std::string text;
    std::vector<text::Token> tokens;
  };
  std::vector<SentenceSample> samples;
  text::Tokenizer tokenizer;
  text::SentenceSplitter splitter(
      text::SentenceSplitterOptions{/*max_sentence_chars=*/0,
                                    /*break_on_newline=*/true});
  std::vector<text::Token> probe;
  for (auto kind : {corpus::CorpusKind::kRelevantWeb, corpus::CorpusKind::kPmc,
                    corpus::CorpusKind::kMedline}) {
    for (const auto& doc : env.corpora.at(kind)) {
      for (const auto& span : splitter.Split(doc.text)) {
        std::string sentence_text = doc.text.substr(span.begin, span.length());
        tokenizer.TokenizeInto(sentence_text, 0, &probe);
        if (probe.empty()) continue;
        SentenceSample sample;
        sample.text = std::move(sentence_text);
        samples.push_back(std::move(sample));
      }
    }
  }
  // Tokenize only once the samples vector is final: tokens are views into
  // each sample's text, which must not move (SSO!) after this point.
  for (auto& sample : samples) {
    sample.tokens = tokenizer.Tokenize(sample.text);
  }
  std::printf("collected %zu sentences\n", samples.size());

  // Buckets by sentence length in characters.
  struct Bucket {
    size_t lo, hi;
    double pos_us = 0, dict_us = 0, ml_us = 0;
    size_t n = 0;
  };
  std::vector<Bucket> buckets = {{0, 50, 0, 0, 0, 0},
                                 {50, 100, 0, 0, 0, 0},
                                 {100, 200, 0, 0, 0, 0},
                                 {200, 400, 0, 0, 0, 0},
                                 {400, 100000, 0, 0, 0, 0}};

  const auto& pos = env.context->pos_tagger();
  const auto& dict = env.context->dictionary_tagger(ie::EntityType::kGene);
  const auto& ml = env.context->crf_tagger(ie::EntityType::kGene);

  for (const auto& sample : samples) {
    Bucket* bucket = nullptr;
    for (auto& b : buckets) {
      if (sample.text.size() >= b.lo && sample.text.size() < b.hi) {
        bucket = &b;
        break;
      }
    }
    if (bucket == nullptr) continue;
    Stopwatch sw;
    bool overflow = false;
    pos.TagTokens(sample.tokens, &overflow);
    bucket->pos_us += sw.ElapsedMicros();
    sw.Restart();
    dict.Tag(1, sample.text);
    bucket->dict_us += sw.ElapsedMicros();
    sw.Restart();
    ml.TagSentence(1, 0, sample.text, sample.tokens);
    bucket->ml_us += sw.ElapsedMicros();
    ++bucket->n;
  }

  std::printf("\n%-14s %8s %12s %12s %12s %10s\n", "sentence chars", "n",
              "POS (us)", "NER dict(us)", "NER ML (us)", "ML/dict");
  double overall_dict = 0, overall_ml = 0;
  std::vector<double> pos_means;
  for (const auto& b : buckets) {
    if (b.n == 0) continue;
    double pos_mean = b.pos_us / b.n;
    double dict_mean = b.dict_us / b.n;
    double ml_mean = b.ml_us / b.n;
    pos_means.push_back(pos_mean);
    overall_dict += b.dict_us;
    overall_ml += b.ml_us;
    std::printf("%5zu-%-8zu %8zu %12.1f %12.2f %12.1f %9.0fx\n", b.lo, b.hi,
                b.n, pos_mean, dict_mean, ml_mean,
                dict_mean > 0 ? ml_mean / dict_mean : 0.0);
  }
  double ratio = overall_dict > 0 ? overall_ml / overall_dict : 0;
  std::printf("\noverall ML/dict runtime ratio: %.0fx (paper: up to three "
              "orders of magnitude)\n", ratio);

  // POS linearity: longer buckets take longer.
  bool pos_monotone =
      std::is_sorted(pos_means.begin(), pos_means.end(),
                     [](double a, double b) { return a < b * 1.15; });

  // Sentence-length-cap ablation (Sect. 5): cap at 2000 chars and count
  // overflow among synthetic runaway "sentences".
  std::string runaway;
  for (int i = 0; i < 1500; ++i) runaway += "Menu ";
  auto runaway_tokens = tokenizer.Tokenize(runaway);
  bool overflowed = false;
  env.context->pos_tagger().TagTokens(runaway_tokens, &overflowed);
  std::printf("2000+-char boilerplate-debris sentence overflows the tagger's "
              "cap: %s (paper: occasional crashes on such input)\n",
              overflowed ? "yes (handled, no crash)" : "no");

  // Per-operator runtimes straight from the observability registry: run the
  // full analysis flow once and print the wsie.dataflow.operator.* counters —
  // the Fig. 3 ranking reproduced without any bench-local stopwatches.
  obs::MetricsRegistry::Global().Reset();
  bench::AnalyzeCorpus(env, corpus::CorpusKind::kMedline, 4);
  std::printf("\nper-operator runtimes from the metrics registry "
              "(medline, dop=4):\n");
  bench::PrintRegistryOperatorRuntimes(bench::SnapshotRegistry(), 0.01);

  // ----------------------------------------------------------------------
  // Allocation-free hot-path gate (seed vs view on the POS+NER ML stage).
  // Seed path: legacy string-copying HMM decode plus materialized CRF
  // feature strings and per-position feature vectors. Hot path: view tokens,
  // interned emission rows, streamed feature hashes, reused scratch.
  size_t total_tokens = 0;
  for (const auto& sample : samples) total_tokens += sample.tokens.size();
  const int kReps = 3;

  // One pass of the seed-path stage. Faithful to the replaced code: the seed
  // pipeline's ForEachSentence materialized OWNED per-token substrings fresh
  // for every consuming operator (once for the POS op, again for the NER ML
  // op), POS copied tokens into strings a second time inside the legacy
  // decode, and TagSentence built annotations from the BIO labels.
  auto run_seed_pass = [&] {
    for (const auto& sample : samples) {
      {
        std::vector<std::string> owned;
        std::vector<text::Token> toks;
        for (const auto& t : sample.tokens) owned.emplace_back(t.text);
        toks.reserve(owned.size());
        for (size_t k = 0; k < owned.size(); ++k) {
          toks.push_back(text::Token{owned[k], sample.tokens[k].begin,
                                     sample.tokens[k].end});
        }
        pos.TagTokensLegacy(toks);
      }
      {
        std::vector<std::string> owned;
        std::vector<text::Token> toks;
        for (const auto& t : sample.tokens) owned.emplace_back(t.text);
        toks.reserve(owned.size());
        for (size_t k = 0; k < owned.size(); ++k) {
          toks.push_back(text::Token{owned[k], sample.tokens[k].begin,
                                     sample.tokens[k].end});
        }
        std::vector<ml::PositionFeatures> features =
            ie::ExtractNerFeatures(toks);
        std::vector<int> labels = ml.model().Decode(features);
        // Seed TagSentence's BIO -> annotation surface materialization.
        std::vector<std::string> surfaces;
        size_t t = 0;
        while (t < labels.size()) {
          if (labels[t] == 0) {
            ++t;
            continue;
          }
          size_t begin = t;
          ++t;
          while (t < labels.size() && labels[t] == 2) ++t;
          surfaces.emplace_back(sample.text, toks[begin].begin,
                                toks[t - 1].end - toks[begin].begin);
        }
      }
    }
  };
  auto run_hot_pass = [&] {
    for (const auto& sample : samples) {
      pos.TagTokens(sample.tokens);
      ml.TagSentence(1, 0, sample.text, sample.tokens);
    }
  };

  // Best-of-kReps pass time per path (min estimator): the minimum discards
  // scheduler/frequency noise that a single back-to-back measurement folds
  // into whichever path runs second. The warm-up pass also fills the hot
  // path's thread-local scratch.
  auto timed = [](const std::function<void()>& pass) {
    return [pass] {
      Stopwatch sw;
      pass();
      return sw.ElapsedSeconds();
    };
  };
  const std::vector<bench::ArmSamples> passes = bench::RunRepetitions(
      kReps, {{"seed path", timed(run_seed_pass)},
              {"view path", timed(run_hot_pass)}});
  const double seed_seconds = passes[0].stats.min;
  const double hot_seconds = passes[1].stats.min;
  // Allocations per warmed pass are a deterministic count: one more pass
  // measures them without perturbing the timed ones.
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  run_hot_pass();
  const uint64_t hot_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;

  double pass_tokens = static_cast<double>(total_tokens);
  double seed_tps = pass_tokens / seed_seconds;
  double hot_tps = pass_tokens / hot_seconds;
  double speedup = seed_seconds / hot_seconds;
  double allocs_per_token = static_cast<double>(hot_allocs) / pass_tokens;
  std::printf("\nPOS+NER(ML) stage, %zu sentences (%.0f tokens), "
              "best of %d interleaved passes:\n",
              samples.size(), pass_tokens, kReps);
  bench::PrintArms(passes, "pass seconds");
  std::printf("  seed path: %10.0f tokens/sec\n", seed_tps);
  std::printf("  view path: %10.0f tokens/sec  (%.2fx, gate >= 1.50x)\n",
              hot_tps, speedup);
  std::printf("  view-path heap allocations/token: %.3f (gate < 0.50; "
              "result vectors + annotation surfaces only)\n",
              allocs_per_token);
  bool hotpath_ok = speedup >= 1.5 && allocs_per_token < 0.5;

  // Our C++ CRF is far faster than the paper's Java/Mallet stack, and the
  // allocation-free streamed-feature decode narrowed the ML-vs-dict gap
  // further, so the absolute gap is ~1 order of magnitude here vs. up to 3
  // in the paper; the direction (ML >> dict) and its growth with input
  // length are what must hold.
  bool ok = ratio > 3 && pos_monotone && overflowed && hotpath_ok;
  std::printf("\nFig. 3 shape (POS ~linear; ML >> dict; long-sentence "
              "pathology; view path >= 1.5x seed, ~0 allocs/token): %s\n",
              ok ? "HOLDS" : "VIOLATED");

  bench::JsonSummary summary("fig3", flags);
  summary.Set("sentences", static_cast<uint64_t>(samples.size()));
  summary.Set("tokens", static_cast<uint64_t>(total_tokens));
  summary.Set("ml_dict_runtime_ratio", ratio);
  summary.Set("pos_monotone", pos_monotone);
  summary.Set("long_sentence_overflow_handled", overflowed);
  summary.Set("seed_pass_seconds", passes[0]);
  summary.Set("hot_pass_seconds", passes[1]);
  summary.Set("seed_tokens_per_sec", seed_tps);
  summary.Set("hot_tokens_per_sec", hot_tps);
  summary.Set("hotpath_speedup", speedup);
  summary.Set("hotpath_allocs_per_token", allocs_per_token);
  summary.Set("gates_pass", ok);
  summary.Write();
  return ok ? 0 : 1;
}
