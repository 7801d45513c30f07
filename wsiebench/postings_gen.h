#ifndef WSIEBENCH_POSTINGS_GEN_H_
#define WSIEBENCH_POSTINGS_GEN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/posting_codec.h"
#include "store/segment.h"

namespace wsie::perfbench {

/// An entity name with the store type index (0 gene, 1 drug, 2 disease)
/// its postings carry.
struct TypedName {
  std::string name;
  uint8_t type = 0;
};

/// One generated annotation occurrence; `name` indexes the generator's
/// rank-ordered name table.
struct GeneratedPosting {
  uint32_t name = 0;
  uint8_t corpus = 0;
  uint8_t method = 0;
  store::Posting posting;
};

/// Deterministic, Zipf-skewed postings over a fixed vocabulary.
///
/// The vocabulary is shuffled once by the seed and cut to `vocabulary_size`
/// names (0 keeps all), so which names are hot changes with the seed while
/// the skew does not. Batch(i, n) is a pure
/// function of (seed, i, n): batches can be produced in any order, on any
/// thread, and regenerated to check what the store holds. Within a batch,
/// every posting is distinct (four postings per document, each in its own
/// sentence range), so the store keeps every one of them.
class PostingsGenerator {
 public:
  PostingsGenerator(std::vector<TypedName> names, uint64_t seed,
                    double zipf_exponent, size_t vocabulary_size = 0);

  std::vector<GeneratedPosting> Batch(uint64_t index, size_t count) const;

  /// Names in Zipf rank order (rank 0 is the most frequent).
  const std::vector<TypedName>& names() const { return names_; }

 private:
  std::vector<TypedName> names_;
  uint64_t seed_;
  double zipf_exponent_;
};

/// Adds `batch` to `builder`, resolving name indices through `names`.
void AddPostings(const std::vector<GeneratedPosting>& batch,
                 const std::vector<TypedName>& names,
                 store::SegmentBuilder* builder);

/// Per-name posting counts accumulated from generated batches: what the
/// store's Lookup and TopK must reproduce.
class ExpectedCounts {
 public:
  void Add(const std::vector<GeneratedPosting>& batch);
  uint64_t Count(uint32_t name) const;
  /// Top `k` (name index, count) by count descending, then name ascending
  /// (the store's tie-break), resolved through `names`.
  std::vector<std::pair<std::string, uint64_t>> TopK(
      size_t k, const std::vector<TypedName>& names) const;
  uint64_t total() const { return total_; }

 private:
  std::unordered_map<uint32_t, uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Lowercased, deduplicated vocabulary from per-type name lists, in input
/// order (genes, drugs, diseases): the normalised form the store indexes.
std::vector<TypedName> NormalizedVocabulary(
    const std::vector<std::string>& genes,
    const std::vector<std::string>& drugs,
    const std::vector<std::string>& diseases);

}  // namespace wsie::perfbench

#endif  // WSIEBENCH_POSTINGS_GEN_H_
