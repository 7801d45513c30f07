#include "ie/crf_tagger.h"

#include <algorithm>

#include "common/char_class.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace wsie::ie {
namespace {

constexpr int kLabelO = 0;
constexpr int kLabelB = 1;
constexpr int kLabelI = 2;

constexpr char ShapeChar(char c) {
  if (IsAsciiUpper(c)) return 'A';
  if (IsAsciiLower(c)) return 'a';
  if (IsAsciiDigit(c)) return '0';
  return '-';
}

std::string WordShape(std::string_view token) {
  std::string shape;
  shape.reserve(token.size());
  for (char c : token) shape.push_back(ShapeChar(c));
  return shape;
}

std::string CompressShape(std::string_view shape) {
  std::string out;
  for (char c : shape) {
    if (out.empty() || out.back() != c) out.push_back(c);
  }
  return out;
}

void AddTokenFeatures(const std::string& prefix, std::string_view token,
                      ml::PositionFeatures& out) {
  std::string lower = wsie::AsciiToLower(token);
  std::string shape = WordShape(token);
  out.push_back(ml::HashFeature(prefix + "w=" + std::string(token)));
  out.push_back(ml::HashFeature(prefix + "lw=" + lower));
  out.push_back(ml::HashFeature(prefix + "sh=" + shape));
  out.push_back(ml::HashFeature(prefix + "csh=" + CompressShape(shape)));
  for (size_t len = 2; len <= 4 && len <= token.size(); ++len) {
    out.push_back(
        ml::HashFeature(prefix + "pre=" + std::string(token.substr(0, len))));
    out.push_back(ml::HashFeature(
        prefix + "suf=" + std::string(token.substr(token.size() - len))));
  }
  if (wsie::ContainsDigit(token))
    out.push_back(ml::HashFeature(prefix + "hasdigit"));
  if (token.find('-') != std::string_view::npos)
    out.push_back(ml::HashFeature(prefix + "hashyphen"));
  if (wsie::IsAllUpper(token)) out.push_back(ml::HashFeature(prefix + "allcaps"));
  if (!token.empty() && IsAsciiUpper(token[0]))
    out.push_back(ml::HashFeature(prefix + "initcap"));
  size_t bucket = token.size() <= 2   ? 2
                  : token.size() <= 4 ? 4
                  : token.size() <= 8 ? 8
                                      : 9;
  out.push_back(ml::HashFeature(prefix + "len=" + std::to_string(bucket)));
}

// ---------------------------------------------------------------------------
// Streaming (allocation-free) feature extraction.
//
// Every feature template is "<prefix><name>=<payload>" hashed with FNV-1a.
// FNV-1a folds bytes left-to-right, so the hash of the concatenation equals
// continuing the hash of the fixed prefix over the payload bytes. All fixed
// parts are folded at compile time into seeds below; per token we fold the
// payload bytes ONCE for all three context prefixes simultaneously, and
// fixed-payload features (indicator flags, length buckets, BOS/EOS) are
// full compile-time constants. Result: zero strings built, hashes
// byte-identical to AddTokenFeatures (golden-tested in hotpath_test.cc).
// ---------------------------------------------------------------------------

struct PrefixSeeds {
  uint64_t w = 0, lw = 0, sh = 0, csh = 0, pre = 0, suf = 0;
  uint64_t hasdigit = 0, hashyphen = 0, allcaps = 0, initcap = 0;
  uint64_t len[4] = {0, 0, 0, 0};  // buckets 2, 4, 8, 9
};

constexpr PrefixSeeds MakeSeeds(std::string_view prefix) {
  PrefixSeeds s;
  const uint64_t p = Fnv1a(prefix, kFnv1aShortBasis);
  s.w = Fnv1a("w=", p);
  s.lw = Fnv1a("lw=", p);
  s.sh = Fnv1a("sh=", p);
  s.csh = Fnv1a("csh=", p);
  s.pre = Fnv1a("pre=", p);
  s.suf = Fnv1a("suf=", p);
  s.hasdigit = Fnv1a("hasdigit", p);
  s.hashyphen = Fnv1a("hashyphen", p);
  s.allcaps = Fnv1a("allcaps", p);
  s.initcap = Fnv1a("initcap", p);
  s.len[0] = Fnv1a("len=2", p);
  s.len[1] = Fnv1a("len=4", p);
  s.len[2] = Fnv1a("len=8", p);
  s.len[3] = Fnv1a("len=9", p);
  return s;
}

// Context prefixes, in emission-slot order: focus, previous, next.
constexpr PrefixSeeds kSeeds[3] = {MakeSeeds(""), MakeSeeds("p1:"),
                                   MakeSeeds("n1:")};
constexpr uint64_t kBosHash = Fnv1a("BOS", kFnv1aShortBasis);
constexpr uint64_t kEosHash = Fnv1a("EOS", kFnv1aShortBasis);
constexpr uint64_t kC3Seed = Fnv1a("c3=", kFnv1aShortBasis);
constexpr uint64_t kP2wSeed = Fnv1a("p2w=", kFnv1aShortBasis);
constexpr uint64_t kN2wSeed = Fnv1a("n2w=", kFnv1aShortBasis);

/// All prefix-continued hashes for one token, computed in a single pass
/// over its bytes and reused wherever the token appears as focus / p1 / n1 /
/// p2w / n2w context (the seed path recomputed lower/shape per appearance).
struct TokenHashes {
  uint64_t w[3], lw[3], sh[3], csh[3];
  uint64_t pre[3][3], suf[3][3];  // [prefix][affix_len - 2]
  uint64_t p2w, n2w;
  uint8_t num_affix;       // valid entries in pre/suf (lengths 2..4)
  uint8_t len_bucket_idx;  // index into PrefixSeeds::len
  bool hasdigit, hashyphen, allcaps, initcap;
};

void ComputeTokenHashes(std::string_view token, TokenHashes* out) {
  for (int p = 0; p < 3; ++p) {
    out->w[p] = kSeeds[p].w;
    out->lw[p] = kSeeds[p].lw;
    out->sh[p] = kSeeds[p].sh;
    out->csh[p] = kSeeds[p].csh;
  }
  out->p2w = kP2wSeed;
  out->n2w = kN2wSeed;
  out->hasdigit = false;
  out->hashyphen = false;
  out->allcaps = !token.empty();
  out->initcap = !token.empty() && IsAsciiUpper(token[0]);
  char last_shape = '\0';
  for (char c : token) {
    const char lc = AsciiLowerChar(c);
    const char sc = ShapeChar(c);
    for (int p = 0; p < 3; ++p) {
      out->w[p] = Fnv1aByte(out->w[p], c);
      out->lw[p] = Fnv1aByte(out->lw[p], lc);
      out->sh[p] = Fnv1aByte(out->sh[p], sc);
    }
    if (sc != last_shape) {
      for (int p = 0; p < 3; ++p) {
        out->csh[p] = Fnv1aByte(out->csh[p], sc);
      }
      last_shape = sc;
    }
    out->p2w = Fnv1aByte(out->p2w, lc);
    out->n2w = Fnv1aByte(out->n2w, lc);
    out->hasdigit |= IsAsciiDigit(c);
    out->hashyphen |= c == '-';
    out->allcaps &= IsAsciiUpper(c);
  }
  const size_t max_affix = std::min<size_t>(4, token.size());
  out->num_affix = max_affix >= 2 ? static_cast<uint8_t>(max_affix - 1) : 0;
  for (int p = 0; p < 3; ++p) {
    uint64_t h = kSeeds[p].pre;
    for (size_t i = 0; i < max_affix; ++i) {
      h = Fnv1aByte(h, token[i]);
      if (i >= 1) out->pre[p][i - 1] = h;
    }
    for (size_t len = 2; len <= max_affix; ++len) {
      out->suf[p][len - 2] =
          Fnv1a(token.substr(token.size() - len), kSeeds[p].suf);
    }
  }
  out->len_bucket_idx = token.size() <= 2   ? 0
                        : token.size() <= 4 ? 1
                        : token.size() <= 8 ? 2
                                            : 3;
}

/// Emits the AddTokenFeatures-equivalent hashes for context slot `p`
/// (0=focus, 1=p1:, 2=n1:), in the exact seed-path feature order.
void EmitTokenFeatures(const TokenHashes& h, int p,
                       ml::HashedFeatureMatrix* out) {
  out->Add(h.w[p]);
  out->Add(h.lw[p]);
  out->Add(h.sh[p]);
  out->Add(h.csh[p]);
  for (int a = 0; a < h.num_affix; ++a) {
    out->Add(h.pre[p][a]);
    out->Add(h.suf[p][a]);
  }
  if (h.hasdigit) out->Add(kSeeds[p].hasdigit);
  if (h.hashyphen) out->Add(kSeeds[p].hashyphen);
  if (h.allcaps) out->Add(kSeeds[p].allcaps);
  if (h.initcap) out->Add(kSeeds[p].initcap);
  out->Add(kSeeds[p].len[h.len_bucket_idx]);
}

}  // namespace

std::vector<ml::PositionFeatures> ExtractNerFeatures(
    const std::vector<text::Token>& tokens) {
  std::vector<ml::PositionFeatures> features(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    ml::PositionFeatures& f = features[i];
    f.reserve(64);
    AddTokenFeatures("", tokens[i].text, f);
    // Internal character trigrams of the focus token (BANNER-style char
    // n-gram features; important for morphology-heavy biomedical names).
    std::string_view w = tokens[i].text;
    for (size_t c = 0; c + 3 <= w.size(); ++c) {
      f.push_back(ml::HashFeature("c3=" + std::string(w.substr(c, 3))));
    }
    if (i > 0) {
      AddTokenFeatures("p1:", tokens[i - 1].text, f);
    } else {
      f.push_back(ml::HashFeature("BOS"));
    }
    if (i + 1 < tokens.size()) {
      AddTokenFeatures("n1:", tokens[i + 1].text, f);
    } else {
      f.push_back(ml::HashFeature("EOS"));
    }
    // +-2 context word identities.
    if (i > 1) {
      f.push_back(ml::HashFeature("p2w=" + AsciiToLower(tokens[i - 2].text)));
    }
    if (i + 2 < tokens.size()) {
      f.push_back(ml::HashFeature("n2w=" + AsciiToLower(tokens[i + 2].text)));
    }
  }
  return features;
}

void ExtractNerFeaturesInto(const std::vector<text::Token>& tokens,
                            ml::HashedFeatureMatrix* out) {
  thread_local std::vector<TokenHashes> token_hashes;
  const size_t n = tokens.size();
  if (token_hashes.size() < n) token_hashes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ComputeTokenHashes(tokens[i].text, &token_hashes[i]);
  }
  out->Reset();
  for (size_t i = 0; i < n; ++i) {
    EmitTokenFeatures(token_hashes[i], 0, out);
    std::string_view w = tokens[i].text;
    for (size_t c = 0; c + 3 <= w.size(); ++c) {
      out->Add(Fnv1a(w.substr(c, 3), kC3Seed));
    }
    if (i > 0) {
      EmitTokenFeatures(token_hashes[i - 1], 1, out);
    } else {
      out->Add(kBosHash);
    }
    if (i + 1 < n) {
      EmitTokenFeatures(token_hashes[i + 1], 2, out);
    } else {
      out->Add(kEosHash);
    }
    if (i > 1) out->Add(token_hashes[i - 2].p2w);
    if (i + 2 < n) out->Add(token_hashes[i + 2].n2w);
    out->FinishPosition();
  }
}

TaggedSentence MakeTaggedSentence(std::string_view sentence_text) {
  static const text::Tokenizer tokenizer;
  TaggedSentence sentence;
  auto buffer = std::make_shared<const std::string>(sentence_text);
  sentence.tokens = tokenizer.Tokenize(*buffer);
  sentence.buffer = std::move(buffer);
  return sentence;
}

CrfTagger::CrfTagger(EntityType type, size_t feature_dim)
    : type_(type), crf_(3, feature_dim) {}

void CrfTagger::Train(const std::vector<TaggedSentence>& sentences,
                      const ml::CrfTrainOptions& options) {
  std::vector<ml::CrfInstance> data;
  data.reserve(sentences.size());
  for (const TaggedSentence& sentence : sentences) {
    ml::CrfInstance instance;
    instance.features = ExtractNerFeatures(sentence.tokens);
    instance.labels.assign(sentence.tokens.size(), kLabelO);
    for (const GoldSpan& span : sentence.spans) {
      for (size_t t = span.begin_token;
           t < span.end_token && t < instance.labels.size(); ++t) {
        instance.labels[t] = (t == span.begin_token) ? kLabelB : kLabelI;
      }
    }
    data.push_back(std::move(instance));
  }
  crf_.Train(data, options);
}

std::vector<Annotation> CrfTagger::TagSentence(
    uint64_t doc_id, uint32_t sentence_id, std::string_view doc_text,
    const std::vector<text::Token>& tokens) const {
  std::vector<Annotation> annotations;
  if (tokens.empty()) return annotations;
  // Hot path: stream features into a flat matrix and Viterbi-decode with
  // reused per-thread scratch — no allocation per sentence at steady state
  // (beyond the returned annotations themselves).
  thread_local ml::HashedFeatureMatrix features;
  thread_local ml::LinearChainCrf::DecodeScratch decode_scratch;
  thread_local std::vector<int> labels;
  ExtractNerFeaturesInto(tokens, &features);
  crf_.Decode(features, &decode_scratch, &labels);
  size_t i = 0;
  while (i < labels.size()) {
    if (labels[i] != kLabelB && labels[i] != kLabelI) {
      ++i;
      continue;
    }
    size_t begin = i;
    ++i;
    while (i < labels.size() && labels[i] == kLabelI) ++i;
    Annotation a;
    a.doc_id = doc_id;
    a.sentence_id = sentence_id;
    a.begin = static_cast<uint32_t>(tokens[begin].begin);
    a.end = static_cast<uint32_t>(tokens[i - 1].end);
    a.entity_type = type_;
    a.method = AnnotationMethod::kMl;
    if (a.end <= doc_text.size() && a.begin < a.end) {
      a.surface = std::string(doc_text.substr(a.begin, a.end - a.begin));
    } else {
      // Offsets relative to a sentence slice: recover from token texts.
      a.surface = std::string(tokens[begin].text);
      for (size_t t = begin + 1; t < i; ++t) {
        a.surface += ' ';
        a.surface += tokens[t].text;
      }
    }
    annotations.push_back(std::move(a));
  }
  return annotations;
}

std::vector<Annotation> MergeHybrid(
    std::vector<Annotation> crf_annotations,
    const std::vector<Annotation>& dict_annotations) {
  auto overlaps = [](const Annotation& a, const Annotation& b) {
    return a.doc_id == b.doc_id && a.begin < b.end && b.begin < a.end;
  };
  std::vector<Annotation> merged = std::move(crf_annotations);
  for (const Annotation& d : dict_annotations) {
    bool clashed = false;
    for (const Annotation& c : merged) {
      if (overlaps(c, d)) {
        clashed = true;
        break;
      }
    }
    if (!clashed) {
      Annotation copy = d;
      copy.method = AnnotationMethod::kMl;  // hybrid output counts as ML
      merged.push_back(std::move(copy));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const Annotation& a, const Annotation& b) {
              if (a.doc_id != b.doc_id) return a.doc_id < b.doc_id;
              return a.begin < b.begin;
            });
  return merged;
}

std::vector<Annotation> FilterTlaAnnotations(
    std::vector<Annotation> annotations, size_t* num_removed) {
  size_t removed = 0;
  std::vector<Annotation> kept;
  kept.reserve(annotations.size());
  for (auto& a : annotations) {
    bool is_tla = a.surface.size() == 3 && wsie::IsAllUpper(a.surface);
    if (is_tla && a.method == AnnotationMethod::kMl) {
      ++removed;
      continue;
    }
    kept.push_back(std::move(a));
  }
  if (num_removed != nullptr) *num_removed = removed;
  return kept;
}

}  // namespace wsie::ie
