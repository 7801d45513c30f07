#include "postings_gen.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "common/rng.h"

namespace wsie::perfbench {

namespace {

/// Postings per generated document; each sits in its own sentence range.
constexpr uint64_t kPostingsPerDoc = 4;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

PostingsGenerator::PostingsGenerator(std::vector<TypedName> names,
                                     uint64_t seed, double zipf_exponent,
                                     size_t vocabulary_size)
    : names_(std::move(names)), seed_(seed), zipf_exponent_(zipf_exponent) {
  Rng rng(Mix(seed_, 0x5eed));
  rng.Shuffle(names_);
  if (vocabulary_size > 0 && vocabulary_size < names_.size()) {
    names_.resize(vocabulary_size);
  }
}

std::vector<GeneratedPosting> PostingsGenerator::Batch(uint64_t index,
                                                       size_t count) const {
  std::vector<GeneratedPosting> batch(count);
  Rng rng(Mix(seed_, index + 1));
  // Doc ids are unique per batch index, so postings of different batches
  // never coincide either.
  const uint64_t first_doc = (index + 1) << 32;
  for (size_t i = 0; i < count; ++i) {
    GeneratedPosting& p = batch[i];
    p.name = static_cast<uint32_t>(rng.Zipf(names_.size(), zipf_exponent_));
    p.corpus = static_cast<uint8_t>(rng.Uniform(store::kNumCorpora));
    p.method = static_cast<uint8_t>(rng.Uniform(store::kNumMethods));
    const uint64_t slot = i % kPostingsPerDoc;
    p.posting.doc_id = first_doc + i / kPostingsPerDoc;
    p.posting.sentence = static_cast<uint32_t>(slot * 16 + rng.Uniform(16));
    p.posting.begin = static_cast<uint32_t>(rng.Uniform(2000));
    p.posting.end = p.posting.begin +
                    static_cast<uint32_t>(names_[p.name].name.size());
  }
  return batch;
}

void AddPostings(const std::vector<GeneratedPosting>& batch,
                 const std::vector<TypedName>& names,
                 store::SegmentBuilder* builder) {
  for (const GeneratedPosting& p : batch) {
    const TypedName& name = names[p.name];
    builder->Add(name.name, p.corpus, name.type, p.method, p.posting);
  }
}

void ExpectedCounts::Add(const std::vector<GeneratedPosting>& batch) {
  for (const GeneratedPosting& p : batch) ++counts_[p.name];
  total_ += batch.size();
}

uint64_t ExpectedCounts::Count(uint32_t name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, uint64_t>> ExpectedCounts::TopK(
    size_t k, const std::vector<TypedName>& names) const {
  std::vector<std::pair<std::string, uint64_t>> all;
  all.reserve(counts_.size());
  for (const auto& [name, count] : counts_) {
    all.emplace_back(names[name].name, count);
  }
  auto order = [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  };
  const size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + n, all.end(), order);
  all.resize(n);
  return all;
}

std::vector<TypedName> NormalizedVocabulary(
    const std::vector<std::string>& genes,
    const std::vector<std::string>& drugs,
    const std::vector<std::string>& diseases) {
  std::vector<TypedName> out;
  std::unordered_set<std::string> seen;
  const std::vector<std::string>* lists[] = {&genes, &drugs, &diseases};
  for (uint8_t type = 0; type < 3; ++type) {
    for (const std::string& raw : *lists[type]) {
      std::string name = raw;
      for (char& c : name) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (seen.insert(name).second) out.push_back({std::move(name), type});
    }
  }
  return out;
}

}  // namespace wsie::perfbench
