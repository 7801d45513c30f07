#include "ml/hmm.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wsie::ml {
namespace {

constexpr double kLogZero = -1e9;
constexpr size_t kMaxSuffix = 4;

}  // namespace

TrigramHmm::TrigramHmm(int num_states)
    : num_states_(num_states),
      tag_counts_(num_states, 0),
      bigram_counts_(num_states, std::vector<uint64_t>(num_states, 0)) {}

void TrigramHmm::AddTrainingSequence(const LabeledSequence& seq) {
  finalized_ = false;
  const size_t n = seq.observations.size();
  int t2 = -1, t1 = -1;  // virtual start states folded into bigram/unigram
  for (size_t i = 0; i < n; ++i) {
    int t0 = seq.states[i];
    const std::string& word = seq.observations[i];
    auto& wc = word_tag_counts_[word];
    if (wc.empty()) wc.assign(num_states_, 0);
    ++wc[t0];
    ++tag_counts_[t0];
    ++total_tags_;
    if (t1 >= 0) ++bigram_counts_[t1][t0];
    if (t2 >= 0 && t1 >= 0) ++trigram_counts_[TrigramKey(t2, t1, t0)];
    for (size_t len = 1; len <= kMaxSuffix && len <= word.size(); ++len) {
      auto& sc = suffix_tag_counts_[word.substr(word.size() - len)];
      if (sc.empty()) sc.assign(num_states_, 0);
      ++sc[t0];
    }
    t2 = t1;
    t1 = t0;
  }
}

void TrigramHmm::Finalize() {
  // Deleted-interpolation weight estimation (Brants 2000, TnT): for each
  // trigram, vote for the order whose relative frequency is largest.
  double l1 = 0, l2 = 0, l3 = 0;
  for (const auto& [key, count] : trigram_counts_) {
    int t2 = static_cast<int>(key >> 32);
    int t1 = static_cast<int>((key >> 16) & 0xffff);
    int t0 = static_cast<int>(key & 0xffff);
    double c3 = bigram_counts_[t2][t1] > 1
                    ? (static_cast<double>(count) - 1.0) /
                          (static_cast<double>(bigram_counts_[t2][t1]) - 1.0)
                    : 0.0;
    double c2 = tag_counts_[t1] > 1
                    ? (static_cast<double>(bigram_counts_[t1][t0]) - 1.0) /
                          (static_cast<double>(tag_counts_[t1]) - 1.0)
                    : 0.0;
    double c1 = total_tags_ > 1
                    ? (static_cast<double>(tag_counts_[t0]) - 1.0) /
                          (static_cast<double>(total_tags_) - 1.0)
                    : 0.0;
    double weight = static_cast<double>(count);
    if (c3 >= c2 && c3 >= c1) {
      l3 += weight;
    } else if (c2 >= c1) {
      l2 += weight;
    } else {
      l1 += weight;
    }
  }
  double sum = l1 + l2 + l3;
  if (sum > 0) {
    lambda1_ = l1 / sum;
    lambda2_ = l2 / sum;
    lambda3_ = l3 / sum;
    // Floor to avoid degenerate all-trigram weights on tiny corpora.
    const double floor = 0.01;
    lambda1_ = std::max(lambda1_, floor);
    lambda2_ = std::max(lambda2_, floor);
    lambda3_ = std::max(lambda3_, floor);
    double norm = lambda1_ + lambda2_ + lambda3_;
    lambda1_ /= norm;
    lambda2_ /= norm;
    lambda3_ /= norm;
  }
  // Precompute dense transition tables.
  const int s = num_states_;
  trans1_.resize(s);
  trans2_.resize(static_cast<size_t>(s) * s);
  trans3_.resize(static_cast<size_t>(s) * s * s);
  for (int t0 = 0; t0 < s; ++t0) trans1_[t0] = ComputeLogTransition(-1, -1, t0);
  for (int t1 = 0; t1 < s; ++t1) {
    for (int t0 = 0; t0 < s; ++t0) {
      trans2_[static_cast<size_t>(t1) * s + t0] =
          ComputeLogTransition(-1, t1, t0);
    }
  }
  for (int t2 = 0; t2 < s; ++t2) {
    for (int t1 = 0; t1 < s; ++t1) {
      for (int t0 = 0; t0 < s; ++t0) {
        trans3_[(static_cast<size_t>(t2) * s + t1) * s + t0] =
            ComputeLogTransition(t2, t1, t0);
      }
    }
  }
  // Intern the lexicon and lay the emission model out as dense id-indexed
  // rows. Every row is produced by the SAME code path the legacy per-call
  // lookup evaluates (EmissionLogProbs / ComputeSuffixRow), so the flat
  // tables are bit-identical to the seed computation — only the lookup cost
  // changes. After this, the per-token work in Decode() is one
  // open-addressing probe and a row copy.
  vocab_ = StringInterner();
  suffixes_ = StringInterner();
  emission_log_.assign(word_tag_counts_.size() * static_cast<size_t>(s), 0.0);
  for (const auto& [word, counts] : word_tag_counts_) {
    (void)counts;
    uint32_t id = vocab_.Intern(word);
    std::vector<double> row = EmissionLogProbs(word);  // known-word path
    std::copy(row.begin(), row.end(),
              emission_log_.begin() + static_cast<size_t>(id) * s);
  }
  suffix_log_.assign(suffix_tag_counts_.size() * static_cast<size_t>(s), 0.0);
  size_t interned_suffixes = 0;
  for (const auto& [suffix, counts] : suffix_tag_counts_) {
    std::vector<double> row(s, kLogZero);
    if (!ComputeSuffixRow(counts, row.data())) continue;  // zero-count suffix
    uint32_t id = suffixes_.Intern(suffix);
    std::copy(row.begin(), row.end(),
              suffix_log_.begin() + static_cast<size_t>(id) * s);
    ++interned_suffixes;
  }
  suffix_log_.resize(interned_suffixes * static_cast<size_t>(s));
  oov_row_.assign(s, 0.0);
  for (int t = 0; t < s; ++t) {
    oov_row_[t] = -std::log(static_cast<double>(num_states_)) - 12.0;
  }
  finalized_ = true;
}

double TrigramHmm::LogTransition(int t2, int t1, int t0) const {
  if (!trans3_.empty()) {
    const int s = num_states_;
    if (t2 >= 0 && t1 >= 0) {
      return trans3_[(static_cast<size_t>(t2) * s + t1) * s + t0];
    }
    if (t1 >= 0) return trans2_[static_cast<size_t>(t1) * s + t0];
    return trans1_[t0];
  }
  return ComputeLogTransition(t2, t1, t0);
}

double TrigramHmm::ComputeLogTransition(int t2, int t1, int t0) const {
  double p1 = total_tags_ > 0 ? static_cast<double>(tag_counts_[t0]) /
                                    static_cast<double>(total_tags_)
                              : 1.0 / num_states_;
  double p2 = 0.0;
  if (t1 >= 0 && tag_counts_[t1] > 0) {
    p2 = static_cast<double>(bigram_counts_[t1][t0]) /
         static_cast<double>(tag_counts_[t1]);
  }
  double p3 = 0.0;
  if (t2 >= 0 && t1 >= 0 && bigram_counts_[t2][t1] > 0) {
    auto it = trigram_counts_.find(TrigramKey(t2, t1, t0));
    if (it != trigram_counts_.end()) {
      p3 = static_cast<double>(it->second) /
           static_cast<double>(bigram_counts_[t2][t1]);
    }
  }
  double p = lambda1_ * p1 + lambda2_ * p2 + lambda3_ * p3;
  return p > 0 ? std::log(p) : kLogZero;
}

bool TrigramHmm::ComputeSuffixRow(const std::vector<uint32_t>& counts,
                                  double* out) const {
  uint64_t suffix_total = 0;
  for (int t = 0; t < num_states_; ++t) suffix_total += counts[t];
  if (suffix_total == 0) return false;
  for (int t = 0; t < num_states_; ++t) {
    double p_tag_given_suffix =
        (static_cast<double>(counts[t]) + 0.1) /
        (static_cast<double>(suffix_total) + 0.1 * num_states_);
    double p_tag = total_tags_ > 0
                       ? (static_cast<double>(tag_counts_[t]) + 1.0) /
                             (static_cast<double>(total_tags_) + num_states_)
                       : 1.0 / num_states_;
    out[t] = std::log(p_tag_given_suffix) - std::log(p_tag) -
             10.0;  // constant OOV penalty keeps scores comparable
  }
  return true;
}

std::vector<double> TrigramHmm::EmissionLogProbs(
    const std::string& word) const {
  std::vector<double> log_probs(num_states_, kLogZero);
  auto it = word_tag_counts_.find(word);
  if (it != word_tag_counts_.end()) {
    for (int t = 0; t < num_states_; ++t) {
      // P(w|t) with add-one smoothing over the vocabulary.
      double p = (static_cast<double>(it->second[t]) + 1e-6) /
                 (static_cast<double>(tag_counts_[t]) + 1.0);
      log_probs[t] = std::log(p);
    }
    return log_probs;
  }
  // OOV: suffix back-off. P(t|suffix) inverted via Bayes: P(w|t) ∝
  // P(t|suffix)/P(t). Use the longest matching suffix.
  for (size_t len = std::min(kMaxSuffix, word.size()); len >= 1; --len) {
    auto sit = suffix_tag_counts_.find(word.substr(word.size() - len));
    if (sit == suffix_tag_counts_.end()) continue;
    if (!ComputeSuffixRow(sit->second, log_probs.data())) continue;
    return log_probs;
  }
  // No suffix information at all: uniform.
  for (int t = 0; t < num_states_; ++t) {
    log_probs[t] = -std::log(static_cast<double>(num_states_)) - 12.0;
  }
  return log_probs;
}

void TrigramHmm::EmissionLogProbsInto(std::string_view word,
                                      double* out) const {
  const int s = num_states_;
  uint32_t id = vocab_.Find(word);
  if (id != StringInterner::kNotFound) {
    const double* row = emission_log_.data() + static_cast<size_t>(id) * s;
    std::copy(row, row + s, out);
    return;
  }
  // OOV: at most kMaxSuffix short probes, longest suffix first.
  for (size_t len = std::min(kMaxSuffix, word.size()); len >= 1; --len) {
    uint32_t sid = suffixes_.Find(word.substr(word.size() - len));
    if (sid == StringInterner::kNotFound) continue;
    const double* row = suffix_log_.data() + static_cast<size_t>(sid) * s;
    std::copy(row, row + s, out);
    return;
  }
  std::copy(oov_row_.begin(), oov_row_.end(), out);
}

std::vector<int> TrigramHmm::Decode(
    const std::vector<std::string>& observations) const {
  std::vector<std::string_view> views(observations.begin(),
                                      observations.end());
  ViterbiScratch scratch;
  std::vector<int> states;
  Decode(views, &scratch, &states);
  return states;
}

void TrigramHmm::Decode(const std::vector<std::string_view>& observations,
                        ViterbiScratch* scratch,
                        std::vector<int>* states) const {
  const size_t n = observations.size();
  states->clear();
  if (n == 0 || !finalized_) return;
  const int s = num_states_;
  const size_t pairs = static_cast<size_t>(s) * s;
  // Viterbi over tag-pair states (prev, cur). delta[(prev, cur)]. All work
  // buffers come from `scratch` and only grow, so steady-state decoding is
  // allocation-free.
  scratch->delta.assign(pairs, kLogZero);
  scratch->next.resize(pairs);
  scratch->emission.resize(s);
  scratch->backpointer.assign(n * pairs, -1);
  double* delta = scratch->delta.data();
  double* next = scratch->next.data();
  double* em = scratch->emission.data();
  int* backpointer = scratch->backpointer.data();

  EmissionLogProbsInto(observations[0], em);
  for (int cur = 0; cur < s; ++cur) {
    double score = LogTransition(-1, -1, cur) + em[cur];
    // Virtual prev state 0; collapse all (prev,cur) onto prev=0 at t=0.
    delta[static_cast<size_t>(0) * s + cur] = score;
  }
  for (size_t i = 1; i < n; ++i) {
    EmissionLogProbsInto(observations[i], em);
    std::fill(next, next + pairs, kLogZero);
    int* bp = backpointer + i * pairs;
    const bool first_step = i == 1;
    for (int prev = 0; prev < s; ++prev) {
      for (int cur = 0; cur < s; ++cur) {
        double base = delta[static_cast<size_t>(prev) * s + cur];
        if (base <= kLogZero) continue;
        // The transition row for this (prev, cur) context is contiguous;
        // reading it directly is the same table load LogTransition()
        // performs, minus the per-transition call and branches. Same
        // operands in the same order, so scores stay bit-identical.
        const double* trow =
            first_step
                ? trans2_.data() + static_cast<size_t>(cur) * s
                : trans3_.data() + (static_cast<size_t>(prev) * s + cur) * s;
        double* nrow = next + static_cast<size_t>(cur) * s;
        int* brow = bp + static_cast<size_t>(cur) * s;
        for (int nxt = 0; nxt < s; ++nxt) {
          // Branchless select: same adds and the same strict comparison as
          // the guarded-store form (element-wise, so results stay
          // bit-identical), but the compiler can vectorize it.
          double score = base + trow[nxt] + em[nxt];
          const bool better = score > nrow[nxt];
          nrow[nxt] = better ? score : nrow[nxt];
          brow[nxt] = better ? prev : brow[nxt];
        }
      }
    }
    std::swap(delta, next);
  }
  // Find best final pair.
  size_t best_idx = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t idx = 0; idx < pairs; ++idx) {
    if (delta[idx] > best_score) {
      best_score = delta[idx];
      best_idx = idx;
    }
  }
  states->resize(n);
  int cur = static_cast<int>(best_idx % s);
  int prev = static_cast<int>(best_idx / s);
  (*states)[n - 1] = cur;
  if (n >= 2) (*states)[n - 2] = prev;
  for (size_t i = n - 1; i >= 2; --i) {
    int prev2 = backpointer[i * pairs + static_cast<size_t>(prev) * s + cur];
    if (prev2 < 0) prev2 = 0;
    (*states)[i - 2] = prev2;
    cur = prev;
    prev = prev2;
  }
}

std::vector<int> TrigramHmm::DecodeLegacy(
    const std::vector<std::string>& observations) const {
  const size_t n = observations.size();
  if (n == 0) return {};
  const int s = num_states_;
  // Seed path, kept verbatim: per-token hash-map lookup + fresh vectors per
  // position. Reference implementation for equivalence tests and the
  // seed-vs-view bench gate.
  std::vector<double> delta(static_cast<size_t>(s) * s, kLogZero);
  std::vector<std::vector<int>> backpointer(
      n, std::vector<int>(static_cast<size_t>(s) * s, -1));

  std::vector<double> em0 = EmissionLogProbs(observations[0]);
  for (int cur = 0; cur < s; ++cur) {
    double score = LogTransition(-1, -1, cur) + em0[cur];
    delta[static_cast<size_t>(0) * s + cur] = score;
  }
  for (size_t i = 1; i < n; ++i) {
    std::vector<double> em = EmissionLogProbs(observations[i]);
    std::vector<double> next(static_cast<size_t>(s) * s, kLogZero);
    for (int prev = 0; prev < s; ++prev) {
      for (int cur = 0; cur < s; ++cur) {
        double base = delta[static_cast<size_t>(prev) * s + cur];
        if (base <= kLogZero) continue;
        for (int nxt = 0; nxt < s; ++nxt) {
          double score =
              base + LogTransition(i == 1 ? -1 : prev, cur, nxt) + em[nxt];
          size_t idx = static_cast<size_t>(cur) * s + nxt;
          if (score > next[idx]) {
            next[idx] = score;
            backpointer[i][idx] = prev;
          }
        }
      }
    }
    delta.swap(next);
  }
  size_t best_idx = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t idx = 0; idx < delta.size(); ++idx) {
    if (delta[idx] > best_score) {
      best_score = delta[idx];
      best_idx = idx;
    }
  }
  std::vector<int> states(n);
  int cur = static_cast<int>(best_idx % s);
  int prev = static_cast<int>(best_idx / s);
  states[n - 1] = cur;
  if (n >= 2) states[n - 2] = prev;
  for (size_t i = n - 1; i >= 2; --i) {
    int prev2 = backpointer[i][static_cast<size_t>(prev) * s + cur];
    if (prev2 < 0) prev2 = 0;
    states[i - 2] = prev2;
    cur = prev;
    prev = prev2;
  }
  return states;
}

}  // namespace wsie::ml
