// Tests for the allocation-free NLP/IE hot path: string-view tokens over a
// pinned buffer, the interned HMM lexicon, and the streaming CRF feature
// hasher. The golden tests here are the contract that lets the hot path
// replace the seed path: byte-identical hashes, bit-identical decodes.

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/char_class.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/rng.h"
#include "ie/crf_tagger.h"
#include "ie/dictionary_tagger.h"
#include "ml/crf.h"
#include "ml/hmm.h"
#include "nlp/pos_tagger.h"
#include "text/tokenizer.h"

namespace wsie {
namespace {

using ::wsie::ie::TaggedSentence;
using ::wsie::text::Token;
using ::wsie::text::Tokenizer;

// ------------------------------------------------------------ char classes

TEST(CharClassTest, MatchesCLocaleCtype) {
  for (int i = 0; i < 256; ++i) {
    char c = static_cast<char>(i);
    bool space = i == ' ' || i == '\t' || i == '\n' || i == '\v' ||
                 i == '\f' || i == '\r';
    bool digit = i >= '0' && i <= '9';
    bool upper = i >= 'A' && i <= 'Z';
    bool lower = i >= 'a' && i <= 'z';
    EXPECT_EQ(IsAsciiSpace(c), space) << "byte " << i;
    EXPECT_EQ(IsAsciiDigit(c), digit) << "byte " << i;
    EXPECT_EQ(IsAsciiUpper(c), upper) << "byte " << i;
    EXPECT_EQ(IsAsciiLower(c), lower) << "byte " << i;
    EXPECT_EQ(IsAsciiAlpha(c), upper || lower) << "byte " << i;
    EXPECT_EQ(IsAsciiAlnum(c), upper || lower || digit) << "byte " << i;
    EXPECT_EQ(AsciiLowerChar(c),
              upper ? static_cast<char>(i - 'A' + 'a') : c);
    EXPECT_EQ(AsciiUpperChar(c),
              lower ? static_cast<char>(i - 'a' + 'A') : c);
  }
}

// ------------------------------------------------------------ interner

TEST(StringInternerTest, DenseIdsInInsertionOrder) {
  StringInterner interner;
  EXPECT_EQ(interner.Intern("alpha"), 0u);
  EXPECT_EQ(interner.Intern("beta"), 1u);
  EXPECT_EQ(interner.Intern("alpha"), 0u);  // re-intern is idempotent
  EXPECT_EQ(interner.Intern("gamma"), 2u);
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.Find("beta"), 1u);
  EXPECT_EQ(interner.Find("delta"), StringInterner::kNotFound);
  EXPECT_EQ(interner.Find(""), StringInterner::kNotFound);
}

TEST(StringInternerTest, SurvivesGrowth) {
  StringInterner interner;
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back("token_" + std::to_string(i * 7919));
    ASSERT_EQ(interner.Intern(keys.back()), static_cast<uint32_t>(i));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(interner.Find(keys[i]), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(interner.Find("token_x"), StringInterner::kNotFound);
  EXPECT_GT(interner.MemoryBytes(), 0u);
}

// ------------------------------------------------------------ view tokens

// Property: every token is a view INTO the source buffer (no copies), and
// its text equals the offset slice it claims to cover.
TEST(TokenViewTest, TokensAliasSourceBuffer) {
  Tokenizer tokenizer;
  Rng rng(99);
  const std::string_view pieces[] = {
      "BRCA1", "p53-dependent", "cells,", "(TLA)", "don't", "  ", "3.14",
      "x", ".", "alpha-2", "--", "Treatment;", "\tgene\n"};
  for (int iter = 0; iter < 200; ++iter) {
    std::string text;
    for (int w = 0; w < 12; ++w) {
      text.append(pieces[rng.Uniform(sizeof(pieces) / sizeof(pieces[0]))]);
      text.push_back(' ');
    }
    const char* lo = text.data();
    const char* hi = text.data() + text.size();
    for (const Token& tok : tokenizer.Tokenize(text)) {
      EXPECT_FALSE(tok.text.empty());
      EXPECT_GE(tok.text.data(), lo);
      EXPECT_LE(tok.text.data() + tok.text.size(), hi);
      ASSERT_LT(tok.begin, tok.end);
      ASSERT_LE(tok.end, text.size());
      EXPECT_EQ(tok.text, std::string_view(text).substr(
                              tok.begin, tok.end - tok.begin));
    }
  }
}

TEST(TokenViewTest, TokenizeIntoMatchesTokenize) {
  Tokenizer tokenizer;
  const std::string text = "The BRCA1 gene (breast cancer) wasn't inhibited.";
  std::vector<Token> reused;
  reused.resize(77);  // stale content must be cleared
  tokenizer.TokenizeInto(text, 5, &reused);
  EXPECT_EQ(reused, tokenizer.Tokenize(text, 5));
}

TEST(TokenViewTest, MakeTaggedSentencePinsBufferAcrossMoves) {
  // Short string: SSO would dangle if tokens viewed a by-value member.
  TaggedSentence ts = ie::MakeTaggedSentence("p53 up");
  ASSERT_EQ(ts.tokens.size(), 2u);
  std::vector<TaggedSentence> moved;
  for (int i = 0; i < 32; ++i) moved.push_back(std::move(ts));
  // (only index 0 holds the sentence; the loop forces reallocation moves)
  EXPECT_EQ(moved[0].tokens[0].text, "p53");
  EXPECT_EQ(moved[0].tokens[1].text, "up");
  EXPECT_EQ(moved[0].tokens[1].begin, 4u);
}

// ------------------------------------------------------------ FNV streaming

TEST(HashStreamingTest, PrefixSeedContinuationMatchesConcatenation) {
  const std::string_view prefixes[] = {"", "w=", "p1:suf=", "n1:sh="};
  const std::string_view words[] = {"", "a", "BRCA1", "p53-dependent",
                                    "don't"};
  for (std::string_view p : prefixes) {
    uint64_t seed = Fnv1a(p, kFnv1aShortBasis);
    for (std::string_view w : words) {
      EXPECT_EQ(Fnv1a(w, seed),
                ml::HashFeature(std::string(p) + std::string(w)));
      uint64_t by_char = seed;
      for (char c : w) by_char = Fnv1aByte(by_char, c);
      EXPECT_EQ(by_char, Fnv1a(w, seed));
    }
  }
}

// Golden test: the streaming extractor must emit EXACTLY the hashes the seed
// extractor computes on materialized feature strings — same positions, same
// order, same values. This is what guarantees identical CRF decodes.
TEST(HashStreamingTest, GoldenStreamingFeatureEquality) {
  Tokenizer tokenizer;
  const std::string_view sentences[] = {
      "The BRCA1 gene was studied extensively",
      "We measured TP53 and EGFR2 in all samples",
      "aspirin-like drugs don't inhibit p53-dependent pathways",
      "A",           // single token, no context
      "ab cd",       // short tokens: affix lengths clamp at size-1
      "(x) 3.14 -- ALLCAPS Initcap hyphen-word a1b2c3",
  };
  for (std::string_view s : sentences) {
    std::vector<Token> tokens = tokenizer.Tokenize(s);
    std::vector<ml::PositionFeatures> seed = ie::ExtractNerFeatures(tokens);
    ml::HashedFeatureMatrix streamed;
    ie::ExtractNerFeaturesInto(tokens, &streamed);
    ASSERT_EQ(streamed.num_positions(), seed.size()) << s;
    for (size_t i = 0; i < seed.size(); ++i) {
      ASSERT_EQ(streamed.position_size(i), seed[i].size())
          << s << " position " << i;
      for (size_t f = 0; f < seed[i].size(); ++f) {
        EXPECT_EQ(streamed.position_data(i)[f], seed[i][f])
            << s << " position " << i << " feature " << f;
      }
    }
  }
}

// ------------------------------------------------------------ HMM decode

TEST(HotPathHmmTest, ViewDecodeMatchesLegacy) {
  nlp::PosTagger tagger;
  tagger.TrainDefault(/*seed=*/3, /*num_sentences=*/400);
  Tokenizer tokenizer;
  const std::string_view sentences[] = {
      "the gene inhibits the protein",
      "swimming walking unknownword12 the",
      "a", "",
      "measured expression of BRCA1 increased significantly today",
  };
  for (std::string_view s : sentences) {
    std::vector<Token> tokens = tokenizer.Tokenize(s);
    bool o1 = false, o2 = false;
    EXPECT_EQ(tagger.TagTokens(tokens, &o1),
              tagger.TagTokensLegacy(tokens, &o2))
        << s;
    EXPECT_EQ(o1, o2);
  }
}

TEST(HotPathHmmTest, ScratchDecodeIsReusableAndDeterministic) {
  nlp::PosTagger tagger;
  tagger.TrainDefault(/*seed=*/3, /*num_sentences=*/200);
  const ml::TrigramHmm& hmm = tagger.hmm();
  ml::TrigramHmm::ViterbiScratch scratch;
  std::vector<int> states;
  std::vector<std::string_view> longer = {"the", "gene", "was", "studied",
                                          "in", "cells"};
  std::vector<std::string_view> shorter = {"unknown", "words"};
  hmm.Decode(longer, &scratch, &states);
  std::vector<int> first = states;
  hmm.Decode(shorter, &scratch, &states);  // shrink reuse
  hmm.Decode(longer, &scratch, &states);   // regrow reuse
  EXPECT_EQ(states, first);
  EXPECT_GT(hmm.lexicon().size(), 0u);
  EXPECT_GT(hmm.lexicon_memory_bytes(), 0u);
}

// ------------------------------------------------------------ dictionary

TEST(HotPathDictTest, TagSpansMatchesTag) {
  ie::DictionaryTagger tagger(ie::EntityType::kDrug,
                              {"aspirin", "ibuprofen", "aspirin lysinate"});
  const std::string text =
      "Patients took aspirin lysinate; ibuprofen and aspirin were compared. "
      "Xaspirin is not a word boundary hit.";
  std::vector<ie::Annotation> full = tagger.Tag(7, text);
  std::vector<ie::AutomatonMatch> spans;
  tagger.TagSpans(text, &spans);
  ASSERT_EQ(spans.size(), full.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].begin, full[i].begin);
    EXPECT_EQ(spans[i].end, full[i].end);
    EXPECT_EQ(text.substr(spans[i].begin, spans[i].end - spans[i].begin),
              full[i].surface);
  }
}

// ------------------------------------------------------------ concurrency

// A finalized tagger is shared across morsel threads; per-thread scratch is
// thread_local. Decoding the same sentences from many threads must give the
// single-thread answers (run under TSan via the `perf` label).
TEST(HotPathConcurrencyTest, SharedTaggersDecodeConsistentlyAcrossThreads) {
  nlp::PosTagger pos;
  pos.TrainDefault(/*seed=*/5, /*num_sentences=*/300);

  std::vector<TaggedSentence> gold;
  for (int i = 0; i < 40; ++i) {
    TaggedSentence ts = ie::MakeTaggedSentence(
        "The GEN" + std::to_string(i) + " gene was studied in cells");
    ts.spans.push_back(ie::GoldSpan{1, 2});
    gold.push_back(std::move(ts));
  }
  ie::CrfTagger crf(ie::EntityType::kGene);
  crf.Train(gold);

  Tokenizer tokenizer;
  std::vector<std::string> docs;
  for (int i = 0; i < 16; ++i) {
    docs.push_back("We studied GEN" + std::to_string(i % 5) +
                   " expression and the protein binds today");
  }

  std::vector<std::vector<nlp::PosTag>> expected_tags(docs.size());
  std::vector<size_t> expected_entities(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    std::vector<Token> tokens = tokenizer.Tokenize(docs[i]);
    expected_tags[i] = pos.TagTokens(tokens);
    expected_entities[i] = crf.TagSentence(1, 0, docs[i], tokens).size();
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Tokenizer local_tokenizer;
      for (int rep = 0; rep < 25; ++rep) {
        for (size_t i = 0; i < docs.size(); ++i) {
          std::vector<Token> tokens = local_tokenizer.Tokenize(docs[i]);
          if (pos.TagTokens(tokens) != expected_tags[i]) ++mismatches[t];
          if (crf.TagSentence(1, 0, docs[i], tokens).size() !=
              expected_entities[i])
            ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

}  // namespace
}  // namespace wsie
