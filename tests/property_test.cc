// Property-based tests (parameterized sweeps over seeds, corpora, and
// entity types): invariants that must hold for every instance, not just
// hand-picked examples.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/varint.h"
#include "corpus/lexicon.h"
#include "corpus/text_generator.h"
#include "html/html_parser.h"
#include "html/html_repair.h"
#include "ie/aho_corasick.h"
#include "ie/dictionary_tagger.h"
#include "ml/stats.h"
#include "store/posting_codec.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"
#include "web/page_renderer.h"
#include "web/url.h"

namespace wsie {
namespace {

const corpus::EntityLexicons& SharedLexicons() {
  static const corpus::EntityLexicons* kLexicons =
      new corpus::EntityLexicons(corpus::LexiconConfig{1500, 250, 250, 77});
  return *kLexicons;
}

// ---------------------------------------------------------------------------
// Property: for every corpus kind and seed, generated documents have gold
// entity offsets that exactly reproduce the entity name, sentence counts
// that are positive, and text within sane length bounds.

using CorpusSeedParam = std::tuple<corpus::CorpusKind, uint64_t>;

class GeneratorProperty : public ::testing::TestWithParam<CorpusSeedParam> {};

TEST_P(GeneratorProperty, GoldOffsetsAndShapeInvariants) {
  auto [kind, seed] = GetParam();
  corpus::CorpusProfile profile = corpus::ProfileFor(kind);
  corpus::TextGenerator generator(&SharedLexicons(), profile, seed);
  for (int i = 0; i < 5; ++i) {
    corpus::Document doc = generator.GenerateDocument(i);
    EXPECT_GE(doc.text.size(), 100u);
    EXPECT_GT(doc.gold_sentences, 0u);
    for (const corpus::GoldEntity& g : doc.gold_entities) {
      ASSERT_LT(g.begin, g.end);
      ASSERT_LE(g.end, doc.text.size());
      EXPECT_EQ(doc.text.substr(g.begin, g.end - g.begin), g.name);
    }
  }
}

TEST_P(GeneratorProperty, DeterministicAcrossRuns) {
  auto [kind, seed] = GetParam();
  corpus::CorpusProfile profile = corpus::ProfileFor(kind);
  corpus::TextGenerator a(&SharedLexicons(), profile, seed);
  corpus::TextGenerator b(&SharedLexicons(), profile, seed);
  EXPECT_EQ(a.GenerateDocument(3).text, b.GenerateDocument(3).text);
}

INSTANTIATE_TEST_SUITE_P(
    AllCorporaAndSeeds, GeneratorProperty,
    ::testing::Combine(
        ::testing::Values(corpus::CorpusKind::kRelevantWeb,
                          corpus::CorpusKind::kIrrelevantWeb,
                          corpus::CorpusKind::kMedline,
                          corpus::CorpusKind::kPmc),
        ::testing::Values(1u, 17u, 23456u)));

// ---------------------------------------------------------------------------
// Property: tokenizer offsets always reconstruct the token text, and
// sentence spans are disjoint, in-bounds, and ordered — for arbitrary
// generated text of every register.

class TextProperty : public ::testing::TestWithParam<CorpusSeedParam> {};

TEST_P(TextProperty, TokenOffsetsReconstruct) {
  auto [kind, seed] = GetParam();
  corpus::TextGenerator generator(&SharedLexicons(),
                                  corpus::ProfileFor(kind), seed);
  corpus::Document doc = generator.GenerateDocument(0);
  text::Tokenizer tokenizer;
  for (const text::Token& t : tokenizer.Tokenize(doc.text)) {
    ASSERT_LE(t.end, doc.text.size());
    EXPECT_EQ(doc.text.substr(t.begin, t.end - t.begin), t.text);
    EXPECT_FALSE(t.text.empty());
  }
}

TEST_P(TextProperty, SentenceSpansDisjointOrderedInBounds) {
  auto [kind, seed] = GetParam();
  corpus::TextGenerator generator(&SharedLexicons(),
                                  corpus::ProfileFor(kind), seed);
  corpus::Document doc = generator.GenerateDocument(0);
  text::SentenceSplitter splitter;
  size_t prev_end = 0;
  for (const text::SentenceSpan& span : splitter.Split(doc.text)) {
    EXPECT_GE(span.begin, prev_end);
    EXPECT_LT(span.begin, span.end);
    EXPECT_LE(span.end, doc.text.size());
    prev_end = span.end;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCorpora, TextProperty,
    ::testing::Combine(
        ::testing::Values(corpus::CorpusKind::kRelevantWeb,
                          corpus::CorpusKind::kMedline,
                          corpus::CorpusKind::kPmc),
        ::testing::Values(5u, 91u)));

// ---------------------------------------------------------------------------
// Property: Aho-Corasick agrees with naive substring search on random
// dictionaries over random text (case-folded).

class AutomatonProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AutomatonProperty, AgreesWithNaiveSearch) {
  Rng rng(GetParam());
  // Random dictionary over a tiny alphabet to force overlaps.
  std::vector<std::string> patterns;
  ie::AhoCorasick automaton;
  for (int p = 0; p < 30; ++p) {
    std::string pattern;
    size_t len = 2 + rng.Uniform(4);
    for (size_t c = 0; c < len; ++c) {
      pattern.push_back(static_cast<char>('a' + rng.Uniform(3)));
    }
    patterns.push_back(pattern);
    automaton.AddPattern(pattern);
  }
  automaton.Build();
  std::string text;
  for (int c = 0; c < 300; ++c) {
    text.push_back(static_cast<char>('a' + rng.Uniform(3)));
  }

  std::multiset<std::tuple<size_t, size_t>> expected;
  for (const std::string& pattern : patterns) {
    for (size_t pos = 0; pos + pattern.size() <= text.size(); ++pos) {
      if (text.compare(pos, pattern.size(), pattern) == 0) {
        expected.insert({pos, pos + pattern.size()});
      }
    }
  }
  std::multiset<std::tuple<size_t, size_t>> actual;
  for (const ie::AutomatonMatch& m : automaton.FindAll(text)) {
    actual.insert({m.begin, m.end});
  }
  EXPECT_EQ(actual, expected);
}

TEST_P(AutomatonProperty, KeepLongestProducesNonContainedSpans) {
  Rng rng(GetParam() + 1);
  std::vector<ie::AutomatonMatch> matches;
  for (int i = 0; i < 50; ++i) {
    size_t begin = rng.Uniform(100);
    matches.push_back(
        ie::AutomatonMatch{0, begin, begin + 1 + rng.Uniform(10)});
  }
  auto kept = ie::AhoCorasick::KeepLongest(matches);
  for (size_t i = 0; i < kept.size(); ++i) {
    for (size_t j = 0; j < kept.size(); ++j) {
      if (i == j) continue;
      bool contained = kept[j].begin <= kept[i].begin &&
                       kept[i].end <= kept[j].end &&
                       (kept[j].begin != kept[i].begin ||
                        kept[j].end != kept[i].end);
      EXPECT_FALSE(contained) << "span " << i << " contained in " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutomatonProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Property: dictionary tagger annotations always lie on word boundaries and
// reproduce their surface, for every entity type.

class DictionaryProperty
    : public ::testing::TestWithParam<ie::EntityType> {};

TEST_P(DictionaryProperty, AnnotationsWellFormed) {
  ie::EntityType type = GetParam();
  ie::DictionaryTagger tagger(type, SharedLexicons().ForType(type));
  corpus::TextGenerator generator(
      &SharedLexicons(), corpus::ProfileFor(corpus::CorpusKind::kMedline), 9);
  for (int i = 0; i < 5; ++i) {
    corpus::Document doc = generator.GenerateDocument(i);
    for (const ie::Annotation& a : tagger.Tag(doc.id, doc.text)) {
      ASSERT_LT(a.begin, a.end);
      ASSERT_LE(a.end, doc.text.size());
      EXPECT_EQ(doc.text.substr(a.begin, a.length()), a.surface);
      EXPECT_EQ(a.entity_type, type);
      EXPECT_GE(a.length(), ie::DictionaryTagger::kMinMentionLength);
    }
  }
}

TEST_P(DictionaryProperty, FindsMostInSliceLexiconMentions) {
  // With the full lexicon as dictionary, every from-lexicon gold mention
  // must be covered by some annotation.
  ie::EntityType type = GetParam();
  ie::DictionaryTagger tagger(type, SharedLexicons().ForType(type));
  corpus::TextGenerator generator(
      &SharedLexicons(), corpus::ProfileFor(corpus::CorpusKind::kMedline), 10);
  size_t gold = 0, covered = 0;
  for (int i = 0; i < 10; ++i) {
    corpus::Document doc = generator.GenerateDocument(i);
    auto annotations = tagger.Tag(doc.id, doc.text);
    for (const corpus::GoldEntity& g : doc.gold_entities) {
      if (g.type != type || !g.from_lexicon) continue;
      ++gold;
      for (const ie::Annotation& a : annotations) {
        if (a.begin <= g.begin && a.end >= g.end) {
          ++covered;
          break;
        }
      }
    }
  }
  if (gold > 0) {
    EXPECT_GT(static_cast<double>(covered) / static_cast<double>(gold), 0.95);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, DictionaryProperty,
                         ::testing::Values(ie::EntityType::kGene,
                                           ie::EntityType::kDrug,
                                           ie::EntityType::kDisease));

// ---------------------------------------------------------------------------
// Property: HTML repair output is tag-balanced and idempotent-ish (repairing
// a repaired page changes nothing), for arbitrarily mangled pages.

class RepairProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepairProperty, RepairedPagesAreBalancedAndStable) {
  corpus::EntityLexicons lexicons(corpus::LexiconConfig{300, 60, 60, 4});
  web::WebConfig config;
  config.num_hosts = 12;
  config.mean_pages_per_host = 6;
  config.seed = GetParam();
  web::SyntheticWeb web(config);
  web::RendererConfig renderer_config;
  renderer_config.severe_error_page_frac = 0.0;  // repairable damage only
  web::PageRenderer renderer(&web, &lexicons, renderer_config);
  html::HtmlRepair repair;
  html::HtmlLexer lexer;
  size_t repaired_pages = 0;
  for (const auto& page : web.pages()) {
    if (page.mime != lang::MimeClass::kHtml) continue;
    if (repaired_pages >= 10) break;
    auto result = repair.Repair(renderer.Render(page).html);
    if (!result.ok()) continue;
    ++repaired_pages;
    // Balance check: per-tag open/close counts match for non-void tags.
    std::map<std::string, int> depth;
    for (const auto& ev : lexer.Lex(result->html)) {
      if (ev.kind == html::HtmlEvent::Kind::kStartTag &&
          ev.name != "script" && ev.name != "style") {
        ++depth[ev.name];
      }
      if (ev.kind == html::HtmlEvent::Kind::kEndTag && ev.name != "script" &&
          ev.name != "style") {
        --depth[ev.name];
      }
    }
    for (const auto& [tag, d] : depth) {
      EXPECT_EQ(d, 0) << "unbalanced <" << tag << ">";
    }
    // Stability: a second repair pass applies no further fixes.
    auto second = repair.Repair(result->html);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->stats.unclosed_tags_closed, 0);
    EXPECT_EQ(second->stats.stray_end_tags_dropped, 0);
    EXPECT_EQ(second->stats.misnested_tags_fixed, 0);
  }
  EXPECT_GT(repaired_pages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------------------
// Property: URL resolution produces re-parseable URLs.

class UrlProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UrlProperty, ResolvedLinksReparse) {
  Rng rng(GetParam());
  web::Url base;
  ASSERT_TRUE(web::ParseUrl("http://host.example.org/dir/page.html", &base));
  const char* links[] = {"/abs.html", "rel.html",
                         "http://other.org/x",     "page2.html#frag",
                         "/a/b/c.html?q=1",        "https://s.org/"};
  for (const char* link : links) {
    web::Url resolved;
    if (!web::ResolveLink(base, link, &resolved)) continue;
    web::Url reparsed;
    EXPECT_TRUE(web::ParseUrl(resolved.ToString(), &reparsed))
        << resolved.ToString();
    EXPECT_EQ(reparsed.host, resolved.host);
  }
  (void)rng;
}

INSTANTIATE_TEST_SUITE_P(Seeds, UrlProperty, ::testing::Values(1u));

// ---------------------------------------------------------------------------
// Property: statistical measures respect their analytic bounds on random
// inputs.

class StatsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsProperty, JsdBoundsAndSymmetry) {
  Rng rng(GetParam());
  std::map<std::string, uint64_t> a, b;
  for (int i = 0; i < 60; ++i) {
    if (rng.Bernoulli(0.7)) a["k" + std::to_string(rng.Uniform(40))] += 1;
    if (rng.Bernoulli(0.7)) b["k" + std::to_string(rng.Uniform(40))] += 1;
  }
  if (a.empty() || b.empty()) return;
  ml::Distribution pa = ml::NormalizeCounts(a);
  ml::Distribution pb = ml::NormalizeCounts(b);
  double ab = ml::JensenShannonDivergence(pa, pb);
  double ba = ml::JensenShannonDivergence(pb, pa);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
  EXPECT_NEAR(ab, ba, 1e-9);
  EXPECT_NEAR(ml::JensenShannonDivergence(pa, pa), 0.0, 1e-9);
}

TEST_P(StatsProperty, MwwPValueInUnitIntervalAndShiftMonotone) {
  Rng rng(GetParam() * 13 + 1);
  std::vector<double> base;
  for (int i = 0; i < 60; ++i) base.push_back(rng.Gaussian(0, 1));
  double last_p = 1.1;
  for (double shift : {0.0, 0.5, 1.5, 4.0}) {
    std::vector<double> shifted;
    for (double v : base) shifted.push_back(v + shift + rng.Gaussian(0, 0.1));
    double p = ml::MannWhitneyU(base, shifted).p_value;
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    if (shift >= 1.5) {
      EXPECT_LT(p, last_p + 0.05);
    }
    last_p = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Property: the posting-list codec (varint + delta) round-trips every sorted
// posting list exactly and rejects malformed input with an error, not UB.

TEST(PostingCodecProperty, VarintRoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             UINT64_MAX - 1,
                             UINT64_MAX};
  for (uint64_t value : values) {
    std::string buffer;
    PutVarint(&buffer, value);
    EXPECT_LE(buffer.size(), 10u);
    std::string_view in = buffer;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint(&in, &decoded)) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(in.empty());
  }
}

TEST(PostingCodecProperty, EmptyAndSingleLists) {
  for (const std::vector<store::Posting>& postings :
       {std::vector<store::Posting>{},
        std::vector<store::Posting>{{42, 7, 100, 104}},
        std::vector<store::Posting>{{UINT64_MAX, UINT32_MAX, 0, UINT32_MAX}}}) {
    std::string encoded;
    ASSERT_TRUE(store::EncodePostingList(postings, &encoded).ok());
    std::string_view in = encoded;
    std::vector<store::Posting> decoded;
    ASSERT_TRUE(store::DecodePostingList(&in, &decoded).ok());
    EXPECT_EQ(decoded, postings);
    EXPECT_TRUE(in.empty());
  }
}

TEST(PostingCodecProperty, MaxDeltaDocIds) {
  // Consecutive postings as far apart as uint64 allows: delta == max.
  std::vector<store::Posting> postings = {{0, 0, 0, 0},
                                          {UINT64_MAX, 1, 2, 3}};
  std::string encoded;
  ASSERT_TRUE(store::EncodePostingList(postings, &encoded).ok());
  std::string_view in = encoded;
  std::vector<store::Posting> decoded;
  ASSERT_TRUE(store::DecodePostingList(&in, &decoded).ok());
  EXPECT_EQ(decoded, postings);
}

TEST(PostingCodecProperty, RejectsUnsortedAndInvalidSpans) {
  std::string encoded;
  std::vector<store::Posting> unsorted = {{5, 0, 0, 1}, {3, 0, 0, 1}};
  EXPECT_FALSE(store::EncodePostingList(unsorted, &encoded).ok());
  std::vector<store::Posting> bad_span = {{1, 0, 9, 4}};  // end < begin
  EXPECT_FALSE(store::EncodePostingList(bad_span, &encoded).ok());
}

class PostingCodecSeedProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PostingCodecSeedProperty, RandomListsRoundTrip) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    std::vector<store::Posting> postings;
    size_t n = rng.Uniform(200);
    uint64_t doc = 0;
    for (size_t i = 0; i < n; ++i) {
      doc += rng.Uniform(1000);  // non-decreasing, duplicates allowed
      uint32_t begin = static_cast<uint32_t>(rng.Uniform(10000));
      postings.push_back(store::Posting{
          doc, static_cast<uint32_t>(rng.Uniform(500)), begin,
          begin + static_cast<uint32_t>(rng.Uniform(40))});
    }
    // The codec contract takes fully sorted lists (<=> over all fields);
    // equal doc ids above may carry out-of-order sentences.
    std::sort(postings.begin(), postings.end());
    std::string encoded;
    ASSERT_TRUE(store::EncodePostingList(postings, &encoded).ok());
    std::string_view in = encoded;
    std::vector<store::Posting> decoded;
    ASSERT_TRUE(store::DecodePostingList(&in, &decoded).ok());
    EXPECT_EQ(decoded, postings);
    EXPECT_TRUE(in.empty());
  }
}

TEST_P(PostingCodecSeedProperty, TruncationAlwaysRejectedNeverUb) {
  Rng rng(GetParam());
  std::vector<store::Posting> postings;
  uint64_t doc = 0;
  for (size_t i = 0; i < 50; ++i) {
    doc += rng.Uniform(100) + 1;
    uint32_t begin = static_cast<uint32_t>(rng.Uniform(1000));
    postings.push_back(store::Posting{
        doc, static_cast<uint32_t>(rng.Uniform(30)), begin, begin + 5});
  }
  std::string encoded;
  ASSERT_TRUE(store::EncodePostingList(postings, &encoded).ok());
  // Every strict prefix must decode to an error (list length is encoded
  // up front, so a shortened buffer can never silently yield fewer items).
  for (size_t len = 0; len < encoded.size(); ++len) {
    std::string_view in(encoded.data(), len);
    std::vector<store::Posting> decoded;
    EXPECT_FALSE(store::DecodePostingList(&in, &decoded).ok()) << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostingCodecSeedProperty,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

}  // namespace
}  // namespace wsie
