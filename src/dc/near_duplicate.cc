#include "dc/near_duplicate.h"

#include <algorithm>
#include <limits>

#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "ml/crf.h"  // HashFeature

namespace wsie::dc {

std::vector<uint64_t> ShingleSet(std::string_view text, int shingle_words) {
  std::vector<std::string> words = SplitWhitespace(AsciiToLower(text));
  std::vector<uint64_t> shingles;
  if (words.size() < static_cast<size_t>(shingle_words)) {
    // Short documents: single shingle over the whole text.
    if (!words.empty()) {
      shingles.push_back(ml::HashFeature(Join(words, " ")));
    }
    return shingles;
  }
  shingles.reserve(words.size());
  for (size_t i = 0; i + shingle_words <= words.size(); ++i) {
    std::string shingle = words[i];
    for (int k = 1; k < shingle_words; ++k) {
      shingle.push_back(' ');
      shingle += words[i + k];
    }
    shingles.push_back(ml::HashFeature(shingle));
  }
  std::sort(shingles.begin(), shingles.end());
  shingles.erase(std::unique(shingles.begin(), shingles.end()),
                 shingles.end());
  return shingles;
}

double JaccardEstimate(const MinHashSignature& a, const MinHashSignature& b) {
  if (a.empty() || a.size() != b.size()) return 0.0;
  size_t agree = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(a.size());
}

NearDuplicateIndex::NearDuplicateIndex(NearDuplicateOptions options)
    : options_(options) {
  if (options_.num_hashes % options_.bands != 0) {
    options_.bands = 8;
  }
  Rng rng(options_.seed);
  hash_params_.reserve(options_.num_hashes);
  for (int h = 0; h < options_.num_hashes; ++h) {
    hash_params_.emplace_back(rng.Next() | 1, rng.Next());
  }
  bands_.resize(static_cast<size_t>(options_.bands));
}

MinHashSignature NearDuplicateIndex::Signature(std::string_view text) const {
  std::vector<uint64_t> shingles = ShingleSet(text, options_.shingle_words);
  MinHashSignature signature(hash_params_.size(),
                             std::numeric_limits<uint64_t>::max());
  for (uint64_t shingle : shingles) {
    for (size_t h = 0; h < hash_params_.size(); ++h) {
      uint64_t value = shingle * hash_params_[h].first + hash_params_[h].second;
      value ^= value >> 33;
      if (value < signature[h]) signature[h] = value;
    }
  }
  return signature;
}

uint64_t NearDuplicateIndex::BandKey(const MinHashSignature& signature,
                                     int band) const {
  size_t rows = signature.size() / static_cast<size_t>(options_.bands);
  uint64_t key = kFnv1aShortBasis ^ static_cast<uint64_t>(band);
  for (size_t r = 0; r < rows; ++r) {
    key ^= signature[static_cast<size_t>(band) * rows + r];
    key *= kFnv1aPrime;
  }
  return key;
}

void NearDuplicateIndex::Add(uint64_t doc_id,
                             const MinHashSignature& signature) {
  signatures_[doc_id] = signature;
  for (int band = 0; band < options_.bands; ++band) {
    bands_[static_cast<size_t>(band)][BandKey(signature, band)].push_back(
        doc_id);
  }
}

int64_t NearDuplicateIndex::FindDuplicateOf(
    const MinHashSignature& signature) const {
  for (int band = 0; band < options_.bands; ++band) {
    auto it = bands_[static_cast<size_t>(band)].find(BandKey(signature, band));
    if (it == bands_[static_cast<size_t>(band)].end()) continue;
    for (uint64_t candidate : it->second) {
      auto sit = signatures_.find(candidate);
      if (sit == signatures_.end()) continue;
      if (JaccardEstimate(signature, sit->second) >=
          options_.jaccard_threshold) {
        return static_cast<int64_t>(candidate);
      }
    }
  }
  return -1;
}

int64_t NearDuplicateIndex::AddIfNovel(uint64_t doc_id,
                                       std::string_view text) {
  MinHashSignature signature = Signature(text);
  int64_t duplicate = FindDuplicateOf(signature);
  if (duplicate >= 0) return duplicate;
  Add(doc_id, signature);
  return -1;
}

}  // namespace wsie::dc
