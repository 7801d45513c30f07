#ifndef WSIE_VEC_EMBEDDER_H_
#define WSIE_VEC_EMBEDDER_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace wsie::vec {

/// Knobs for the feature-hashed embedder. Every field participates in the
/// persisted index format, so two indexes built with equal configs (and
/// equal name sets) are byte-identical.
struct EmbedderConfig {
  uint32_t dim = 256;      ///< feature-hash buckets (vector dimensionality)
  uint32_t ngram_min = 3;  ///< smallest char n-gram per token
  uint32_t ngram_max = 5;  ///< largest char n-gram per token

  friend bool operator==(const EmbedderConfig&, const EmbedderConfig&) =
      default;
};

/// Deterministic feature-hashed text embedder.
///
/// Embeds entity names and free sentence text into one shared
/// `dim`-dimensional space by hashing three feature families through the
/// same streaming FNV-1a the CRF feature extractor uses (common/hash.h
/// Fnv1a continued from precomputed template-prefix seeds — no feature string
/// is ever materialized):
///
///   t=<token>            whole lowercased alphanumeric token
///   g=<gram>             char n-grams of "#token#" (boundary-marked),
///                        sizes [ngram_min, ngram_max]
///   b=<tok1>_<tok2>      adjacent-token context bigram (half weight)
///
/// Each feature lands in bucket `hash % dim` with sign `hash >> 63` (signed
/// feature hashing keeps bucket collisions mean-zero), and the result is
/// L2-normalized. The embedding is a pure function of the bytes of `text`
/// and the config — bit-identical across runs, shard counts, and hosts —
/// so entity vectors, and therefore the ANN graph built over them, are
/// byte-deterministic.
class Embedder {
 public:
  explicit Embedder(EmbedderConfig config = {}) : config_(config) {}

  /// Writes the L2-normalized embedding of `text` into out[0..dim). Text
  /// with no alphanumeric tokens embeds to the zero vector.
  void Embed(std::string_view text, float* out) const;

  /// Convenience allocating overload.
  std::vector<float> Embed(std::string_view text) const {
    std::vector<float> v(config_.dim);
    Embed(text, v.data());
    return v;
  }

  uint32_t dim() const { return config_.dim; }
  const EmbedderConfig& config() const { return config_; }

 private:
  EmbedderConfig config_;
};

}  // namespace wsie::vec

#endif  // WSIE_VEC_EMBEDDER_H_
