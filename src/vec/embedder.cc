#include "vec/embedder.h"

#include <cmath>

#include "common/char_class.h"
#include "common/hash.h"

namespace wsie::vec {
namespace {

// Template-prefix seeds, folded at compile time exactly like the CRF
// extractor's: hashing continues from these with the feature payload bytes,
// so HashFeature("t=" + token) is reproduced without building the string.
constexpr uint64_t kTokenSeed = Fnv1a("t=", kFnv1aShortBasis);
constexpr uint64_t kGramSeed = Fnv1a("g=", kFnv1aShortBasis);
constexpr uint64_t kBigramSeed = Fnv1a("b=", kFnv1aShortBasis);

constexpr char kBoundary = '#';
constexpr char kJoiner = '_';

}  // namespace

void Embedder::Embed(std::string_view text, float* out) const {
  const uint32_t dim = config_.dim;
  for (uint32_t i = 0; i < dim; ++i) out[i] = 0.0f;

  auto bucket = [&](uint64_t hash, float weight) {
    const float signed_weight = (hash >> 63) ? -weight : weight;
    out[hash % dim] += signed_weight;
  };

  // Walk lowercased alphanumeric token runs. Features are bucketed in
  // stream order, so the float accumulation order — and therefore every
  // output bit — is a pure function of the text bytes and the config.
  uint64_t prev_bigram_seed = 0;  // "b=" + previous token, streamed
  bool has_prev = false;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && !IsAsciiAlnum(text[i])) ++i;
    if (i >= n) break;
    const size_t begin = i;
    uint64_t token_hash = kTokenSeed;
    while (i < n && IsAsciiAlnum(text[i])) {
      token_hash = Fnv1aByte(token_hash, AsciiLowerChar(text[i]));
      ++i;
    }
    const size_t len = i - begin;
    bucket(token_hash, 1.0f);

    // Char n-grams over "#token#" (boundary-marked), one streamed hash per
    // (start, size), reading lowercased bytes straight from the text.
    const size_t padded = len + 2;
    auto padded_char = [&](size_t p) {
      return (p == 0 || p == padded - 1) ? kBoundary
                                         : AsciiLowerChar(text[begin + p - 1]);
    };
    for (size_t size = config_.ngram_min;
         size <= config_.ngram_max && size <= padded; ++size) {
      for (size_t start = 0; start + size <= padded; ++start) {
        uint64_t h = kGramSeed;
        for (size_t k = 0; k < size; ++k) {
          h = Fnv1aByte(h, padded_char(start + k));
        }
        bucket(h, 1.0f);
      }
    }

    // Adjacent-token context bigram "b=<prev>_<cur>", continued from the
    // previous token's prefix seed — the same prefix-seed continuation
    // trick the CRF path uses, so no feature string is materialized.
    if (has_prev) {
      uint64_t h = Fnv1aByte(prev_bigram_seed, kJoiner);
      for (size_t p = begin; p < begin + len; ++p) {
        h = Fnv1aByte(h, AsciiLowerChar(text[p]));
      }
      bucket(h, 0.5f);
    }
    uint64_t h = kBigramSeed;
    for (size_t p = begin; p < begin + len; ++p) {
      h = Fnv1aByte(h, AsciiLowerChar(text[p]));
    }
    prev_bigram_seed = h;
    has_prev = true;
  }

  // L2 normalization with a double accumulator (one fixed pass). The
  // normalized floats are what every consumer — graph build, re-rank,
  // brute force — sees, so precision here is a shared constant, not skew.
  double norm_sq = 0.0;
  for (uint32_t d = 0; d < dim; ++d) {
    norm_sq += static_cast<double>(out[d]) * static_cast<double>(out[d]);
  }
  if (norm_sq > 0.0) {
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (uint32_t d = 0; d < dim; ++d) out[d] *= inv;
  }
}

}  // namespace wsie::vec
