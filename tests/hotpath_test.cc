// Tests for the allocation-free NLP/IE hot path: string-view tokens over a
// pinned buffer, the interned HMM lexicon, and the streaming CRF feature
// hasher. The golden tests here are the contract that lets the hot path
// replace the seed path: byte-identical hashes, bit-identical decodes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/char_class.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/analysis_context.h"
#include "corpus/text_generator.h"
#include "ie/crf_tagger.h"
#include "ie/dictionary_tagger.h"
#include "ml/crf.h"
#include "ml/hmm.h"
#include "ml/viterbi_step.h"
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

// ------------------------------------------------------------ decode kernel

// Decode() reorders the Viterbi loops and skips dominated predecessors;
// DecodeLegacy() is its oracle. Every case below must decode to the same
// states, element by element.

// A model over `s` states trained on seeded random sequences over states
// [0, trained_states). `symmetric` adds every sequence under all s cyclic
// shifts of its states, so every tag's counts, rows and emissions equal the
// others' up to the shift: scores tie exactly. Sparse training leaves most
// (prev, cur) contexts unseen, so their rows are bit-identical; untrained
// states make kLogZero transitions.
ml::TrigramHmm TrainSeededHmm(int s, uint64_t seed, bool symmetric,
                              int trained_states, size_t num_sequences) {
  ml::TrigramHmm hmm(s);
  Rng rng(seed);
  for (size_t q = 0; q < num_sequences; ++q) {
    ml::LabeledSequence seq;
    const size_t len = 1 + rng.Uniform(10);
    for (size_t j = 0; j < len; ++j) {
      const int state = static_cast<int>(rng.Uniform(trained_states));
      // Half the words carry their state in a suffix, half are noise.
      std::string word(1, rng.Uniform(2) == 0 ? 'w' : 'x');
      if (word[0] == 'w') {
        word += std::to_string(rng.Uniform(30));
      } else {
        word += std::to_string(rng.Uniform(5));
        word += 's';
        word += std::to_string(state);
      }
      seq.observations.push_back(std::move(word));
      seq.states.push_back(state);
    }
    hmm.AddTrainingSequence(seq);
    if (!symmetric) continue;
    for (int shift = 1; shift < s; ++shift) {
      ml::LabeledSequence shifted = seq;
      for (int& state : shifted.states) state = (state + shift) % s;
      hmm.AddTrainingSequence(shifted);
    }
  }
  hmm.Finalize();
  return hmm;
}

// Index of the first position where the two decodes differ, or -1.
long FirstMismatch(const std::vector<int>& a, const std::vector<int>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return static_cast<long>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

// A word the seeded models know ("w7", "x3s12"), an OOV word with a known
// suffix ("new417s12") or one with no known suffix ("QQ4#").
std::string SeededWord(Rng& rng, int s) {
  std::string word;
  switch (rng.Uniform(4)) {
    case 0:
      word = "w";
      word += std::to_string(rng.Uniform(30));
      break;
    case 1:
      word = "x";
      word += std::to_string(rng.Uniform(5));
      word += "s";
      word += std::to_string(rng.Uniform(s));
      break;
    case 2:
      word = "new";
      word += std::to_string(rng.Uniform(1000));
      word += "s";
      word += std::to_string(rng.Uniform(s));
      break;
    default:
      word = "QQ";
      word += std::to_string(rng.Uniform(9));
      word += "#";
      break;
  }
  return word;
}

TEST(HotPathHmmTest, KernelMatchesLegacyOnSeededModels) {
  struct ModelCase {
    int s;
    bool symmetric;
    int trained_states;
    size_t sequences;
  };
  const ModelCase models[] = {
      {2, false, 2, 60},   {2, true, 2, 30},    {3, false, 3, 80},
      {3, true, 3, 40},    {19, false, 19, 40}, {19, false, 19, 600},
      {19, true, 19, 20},  {19, false, 10, 200},
  };
  // One scratch for every decode: stale entries must not leak.
  ml::TrigramHmm::ViterbiScratch scratch;
  std::vector<int> states;
  for (uint64_t seed : {1u, 2u}) {
    for (const ModelCase& m : models) {
      const ml::TrigramHmm hmm = TrainSeededHmm(
          m.s, seed, m.symmetric, m.trained_states, m.sequences);
      Rng rng(seed * 977 + static_cast<uint64_t>(m.s));
      std::vector<std::vector<std::string>> sentences;
      // The 1,000-token cap first, so later short sentences reuse a scratch
      // that holds stale backpointers.
      std::vector<std::string> cap;
      for (int i = 0; i < 1000; ++i) cap.push_back(SeededWord(rng, m.s));
      sentences.push_back(std::move(cap));
      sentences.push_back({"QQ#", "ZZ%", "@@", "!?", "||", "~"});  // all OOV
      sentences.push_back({"w1"});
      sentences.push_back({"QQ#"});
      sentences.push_back({"w3", "w4"});
      sentences.push_back({"x1s0", "QQ#"});
      for (int k = 0; k < 30; ++k) {
        std::vector<std::string> mixed(1 + rng.Uniform(40));
        for (std::string& word : mixed) word = SeededWord(rng, m.s);
        sentences.push_back(std::move(mixed));
      }
      for (const std::vector<std::string>& words : sentences) {
        const std::vector<int> legacy = hmm.DecodeLegacy(words);
        ASSERT_EQ(legacy.size(), words.size());
        EXPECT_EQ(FirstMismatch(hmm.Decode(words), legacy), -1)
            << "s=" << m.s << " symmetric=" << m.symmetric
            << " trained=" << m.trained_states << " seed=" << seed
            << " length=" << words.size();
        const std::vector<std::string_view> views(words.begin(), words.end());
        hmm.Decode(views, &scratch, &states);
        EXPECT_EQ(FirstMismatch(states, legacy), -1)
            << "scratch reuse, s=" << m.s << " length=" << words.size();
      }
    }
  }
}

// One Viterbi step, driven directly. The trained models above never put two
// deltas of one row class within rounding distance of each other, so the
// kernel's near-tie path (a prev before its class leader, kept because its
// score may still round to the leader's) is exercised here with hand-built
// rows, deltas and emissions.
class ViterbiStepTest : public ::testing::Test {
 protected:
  static constexpr double kLogZero = ml::viterbi::kLogZero;

  // A step over `s` states with `classes_per_cur` row classes per cur,
  // every prev in class 0, every delta and row entry kLogZero.
  void Init(int s, int classes_per_cur) {
    s_ = s;
    w_ = (static_cast<size_t>(s) + 3) / 4 * 4;
    row_class_.assign(static_cast<size_t>(s) * s, 0);
    first_row_.assign(static_cast<size_t>(s) + 1, 0);
    for (int cur = 0; cur <= s; ++cur) {
      first_row_[cur] = static_cast<uint32_t>(cur * classes_per_cur);
    }
    rows_.assign(static_cast<size_t>(s) * classes_per_cur * w_, kLogZero);
    delta_.assign(s * w_, kLogZero);
    em_.assign(w_, 0.0);
    next_.assign(s * w_, 0.0);
    bp_.assign(s * w_, 0xff);
  }
  double* Row(int cur, int cls) {
    return rows_.data() + (first_row_[cur] + cls) * w_;
  }
  double& Delta(int prev, int cur) { return delta_[prev * w_ + cur]; }
  uint8_t Bp(int cur, int nxt) const { return bp_[cur * w_ + nxt]; }

  // Runs the kernel, then checks every (cur, nxt) against the legacy loop
  // (every live prev, ascending, strict >) computed here.
  void RunAndCheck() {
    const size_t rows = first_row_[s_];
    std::vector<double> abs_max(rows, 0.0);
    for (size_t r = 0; r < rows; ++r) {
      for (int nxt = 0; nxt < s_; ++nxt) {
        abs_max[r] = std::max(abs_max[r], std::fabs(rows_[r * w_ + nxt]));
      }
    }
    double em_abs_max = 0.0;
    for (int nxt = 0; nxt < s_; ++nxt) {
      em_abs_max = std::max(em_abs_max, std::fabs(em_[nxt]));
    }
    ml::viterbi::Step({s_, w_, row_class_.data(), first_row_.data(),
                       rows_.data(), abs_max.data(), delta_.data(),
                       em_.data(), em_abs_max, next_.data(), bp_.data()});
    for (int cur = 0; cur < s_; ++cur) {
      for (int nxt = 0; nxt < s_; ++nxt) {
        double best = kLogZero;
        int arg = 0;
        for (int prev = 0; prev < s_; ++prev) {
          const double d = Delta(prev, cur);
          if (d <= kLogZero) continue;
          const double score =
              (d + Row(cur, row_class_[cur * s_ + prev])[nxt]) + em_[nxt];
          if (score > best) {
            best = score;
            arg = prev;
          }
        }
        EXPECT_EQ(next_[cur * w_ + nxt], best) << "cur=" << cur
                                               << " nxt=" << nxt;
        EXPECT_EQ(Bp(cur, nxt), arg) << "cur=" << cur << " nxt=" << nxt;
      }
    }
  }

  int s_ = 0;
  size_t w_ = 0;
  std::vector<uint8_t> row_class_;
  std::vector<uint32_t> first_row_;
  std::vector<double> rows_, delta_, em_, next_;
  std::vector<uint8_t> bp_;
};

// prev 0 sits 2^-33 below its class leader, prev 1. Once rounded to the
// ulp of 2^21 (2^-32) both scores are equal, so prev 0, seen first, must
// win. The large magnitude sits in the emission (first step) or in the row
// (second step), so a margin that leaves out either term skips prev 0.
TEST_F(ViterbiStepTest, KeepsEarlierPrevWhoseScoreRoundsToTheLeaders) {
  const double m = 1.0;
  const double d = 1.0 - 0x1p-33;
  for (const bool large_em : {true, false}) {
    SCOPED_TRACE(large_em ? "large emission" : "large row");
    Init(/*s=*/2, /*classes_per_cur=*/1);
    const double big = -0x1p21;
    Delta(0, 0) = d;
    Delta(1, 0) = m;
    em_[0] = large_em ? big : 0.0;
    em_[1] = -0.5;
    Row(0, 0)[0] = large_em ? 0.0 : big;
    Row(0, 0)[1] = -3.0;
    ASSERT_EQ((d + Row(0, 0)[0]) + em_[0], (m + Row(0, 0)[0]) + em_[0]);
    RunAndCheck();
    EXPECT_EQ(Bp(0, 0), 0);  // a tie: the earlier prev
    EXPECT_EQ(Bp(0, 1), 1);  // prev 0 scores -2.5 - 2^-33 exactly: no tie
  }
}

// prev 0 is dead (delta = kLogZero), one ulp below its class leader, and
// its score would round to the leader's: 2e9 + 2^-23 rounds to even, 2e9.
// The legacy loop never scores a dead prev, so the leader must win.
TEST_F(ViterbiStepTest, NeverKeepsADeadPrevBesideItsLeader) {
  Init(/*s=*/2, /*classes_per_cur=*/1);
  const double m = std::nextafter(kLogZero, 0.0);
  Delta(0, 0) = kLogZero;
  Delta(1, 0) = m;
  em_[0] = 3e9;
  Row(0, 0)[0] = 0.0;
  Row(0, 0)[1] = 0.0;
  Row(1, 0)[0] = 0.0;
  Row(1, 0)[1] = 0.0;
  ASSERT_EQ((kLogZero + 0.0) + 3e9, (m + 0.0) + 3e9);
  RunAndCheck();
  EXPECT_EQ(Bp(0, 0), 1);
  EXPECT_EQ(next_[0], 2e9);
}

// Seeded steps over 19 states and 3 row classes per cur whose deltas sit
// within a few ulps of each other, some dead or one ulp above kLogZero, and
// whose rows and emissions mix log-prob-sized and very large values: ties
// and near-ties everywhere, each checked against the legacy loop.
TEST_F(ViterbiStepTest, MatchesLegacyLoopOnSeededNearTies) {
  constexpr int kS = 19, kClasses = 3;
  Rng rng(2024);
  const double magnitudes[] = {0.0, -0.75, -3.0, -1000.5, -0x1p21, 3e9};
  for (int trial = 0; trial < 200; ++trial) {
    Init(kS, kClasses);
    for (int cur = 0; cur < kS; ++cur) {
      for (int prev = 0; prev < kS; ++prev) {
        row_class_[cur * kS + prev] =
            static_cast<uint8_t>(rng.Uniform(kClasses));
        const double base = rng.Uniform(2) == 0 ? 1.0 : -40.25;
        double d = base;
        for (uint64_t k = rng.Uniform(6); k > 0; --k) {
          d = std::nextafter(d, -1e300);
        }
        switch (rng.Uniform(8)) {
          case 0:
            d = kLogZero;
            break;
          case 1:
            d = std::nextafter(kLogZero, 0.0);
            break;
          default:
            break;
        }
        Delta(prev, cur) = d;
      }
      for (int c = 0; c < kClasses; ++c) {
        for (int nxt = 0; nxt < kS; ++nxt) {
          Row(cur, c)[nxt] = magnitudes[rng.Uniform(6)];
        }
      }
    }
    for (int nxt = 0; nxt < kS; ++nxt) em_[nxt] = magnitudes[rng.Uniform(6)];
    RunAndCheck();
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
}

// Every sentence of a small sample of the four corpora, tagged by an
// AnalysisContext's POS tagger (the model the analysis flow runs).
TEST(HotPathHmmTest, KernelMatchesLegacyOnFourCorpusSample) {
  core::AnalysisContextConfig config;
  config.crf_training_sentences = 40;
  config.pos_training_sentences = 1000;
  config.seed = 4243;
  const core::AnalysisContext context(config);
  const nlp::PosTagger& tagger = context.pos_tagger();
  size_t sentences = 0, tokens_seen = 0;
  const corpus::CorpusKind kinds[] = {
      corpus::CorpusKind::kRelevantWeb, corpus::CorpusKind::kIrrelevantWeb,
      corpus::CorpusKind::kMedline, corpus::CorpusKind::kPmc};
  uint64_t seed = 17;
  for (corpus::CorpusKind kind : kinds) {
    corpus::TextGenerator generator(&context.lexicons(),
                                    corpus::ProfileFor(kind), seed);
    for (const corpus::Document& doc :
         generator.GenerateCorpus(seed * 1000, 3)) {
      const std::string_view text = doc.text;
      for (const text::SentenceSpan& span : context.splitter().Split(text)) {
        const std::vector<Token> tokens = context.tokenizer().Tokenize(
            text.substr(span.begin, span.length()));
        bool o1 = false, o2 = false;
        const std::vector<nlp::PosTag> tags = tagger.TagTokens(tokens, &o1);
        const std::vector<nlp::PosTag> legacy =
            tagger.TagTokensLegacy(tokens, &o2);
        ASSERT_EQ(tags.size(), legacy.size());
        for (size_t i = 0; i < tags.size(); ++i) {
          ASSERT_EQ(tags[i], legacy[i])
              << "corpus " << static_cast<int>(kind) << " doc " << doc.id
              << " token " << i;
        }
        EXPECT_EQ(o1, o2);
        ++sentences;
        tokens_seen += tokens.size();
      }
    }
    ++seed;
  }
  EXPECT_GT(sentences, 40u);
  EXPECT_GT(tokens_seen, 800u);
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
