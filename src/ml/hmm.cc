#include "ml/hmm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "ml/viterbi_step.h"

namespace wsie::ml {
namespace {

using viterbi::kLogZero;
constexpr size_t kMaxSuffix = 4;
constexpr size_t kLanes = 4;  // the step kernel covers nxt four at a time

}  // namespace

void TrigramHmm::BuildStepTable(bool first_step, StepTable* table) const {
  const int s = num_states_;
  const size_t row_bytes = static_cast<size_t>(s) * sizeof(double);
  table->row_class.assign(static_cast<size_t>(s) * s, 0);
  table->first_row.assign(static_cast<size_t>(s) + 1, 0);
  table->rows.clear();
  table->row_abs_max.clear();
  uint32_t num_rows = 0;
  for (int cur = 0; cur < s; ++cur) {
    const uint32_t first = num_rows;
    table->first_row[cur] = first;
    for (int prev = 0; prev < s; ++prev) {
      // Step 1 reads the bigram row for every prev (prev is the virtual
      // start state), so each cur has exactly one class there.
      const double* row =
          first_step
              ? trans2_.data() + static_cast<size_t>(cur) * s
              : trans3_.data() + (static_cast<size_t>(prev) * s + cur) * s;
      uint32_t r = first;
      while (r < num_rows &&
             std::memcmp(table->rows.data() + r * stride_, row, row_bytes) !=
                 0) {
        ++r;
      }
      if (r == num_rows) {
        table->rows.insert(table->rows.end(), row, row + s);
        table->rows.resize((num_rows + 1) * stride_, kLogZero);
        double abs_max = 0.0;
        for (int nxt = 0; nxt < s; ++nxt) {
          abs_max = std::max(abs_max, std::fabs(row[nxt]));
        }
        table->row_abs_max.push_back(abs_max);
        ++num_rows;
      }
      table->row_class[static_cast<size_t>(cur) * s + prev] =
          static_cast<uint8_t>(r - first);
    }
  }
  table->first_row[s] = num_rows;
}

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
  // Precompute dense transition tables and the decode kernel's layout of
  // them. A model Decode() cannot decode skips both (s^3 doubles for
  // nothing); LogTransition() then computes each transition directly.
  const int s = num_states_;
  if (s <= kMaxDecodeStates) {
    trans1_.resize(s);
    trans2_.resize(static_cast<size_t>(s) * s);
    trans3_.resize(static_cast<size_t>(s) * s * s);
    for (int t0 = 0; t0 < s; ++t0) {
      trans1_[t0] = ComputeLogTransition(-1, -1, t0);
    }
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
    stride_ = (static_cast<size_t>(s) + kLanes - 1) / kLanes * kLanes;
    BuildStepTable(/*first_step=*/true, &first_step_);
    BuildStepTable(/*first_step=*/false, &steps_);
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

// ------------------------------------------------------------ decode kernel
//
// One Viterbi step computes, for every pair (cur, nxt), the maximum over
// live prev of
//   score(prev) = (delta[prev][cur] + T[prev][cur][nxt]) + em[nxt]
// where a prev is live when delta[prev][cur] > kLogZero, the running maximum
// starts at kLogZero and only a strictly greater score replaces it, prev
// ascending. The result is therefore (M, the first live prev scoring M) with
// M = max(kLogZero, every live score), or (kLogZero, none) — so a prev that
// is never the FIRST maximizer for any nxt can be dropped without changing
// next or the backpointers. Within one row class (bit-identical rows T) the
// scores are monotone in delta, since floating-point rounding is monotone.
// Let the leader be the first prev attaining the class's largest delta m:
//   - a prev after the leader has delta <= m, so its score is <= the
//     leader's for every nxt, and the leader is seen first: never a first
//     maximizer;
//   - a prev before the leader has delta < m; its score is strictly lower
//     once m - delta exceeds the two additions' rounding error,
//     2^-50 (|m| + max|T row| + max|em|) (each addition errs by at most
//     2^-53 of its magnitude); the test uses 2^-49 so it also holds for the
//     rounded m - delta and margin. Within that margin the prev is kept.
// The kept prevs run through the same adds in the same order with the same
// strict compare as DecodeLegacy(), so the step is exact.

namespace viterbi {
namespace {

// Two doubles, one SSE2 register on baseline x86-64.
typedef double Vec2 __attribute__((vector_size(2 * sizeof(double))));
constexpr size_t kVecLanes = sizeof(Vec2) / sizeof(double);

struct Candidate {
  double delta;
  double prev;
  const double* row;
};

// Max-plus over lanes [nxt0, nxt0 + kWidth) of one cur, accumulators in
// registers, candidates in ascending prev order.
template <size_t kWidth>
[[gnu::always_inline]] inline void MaxPlusBlock(const Candidate* cands,
                                                int count, const double* em,
                                                size_t nxt0, double* next_row,
                                                uint8_t* bp_row) {
  constexpr size_t kVecs = kWidth / kVecLanes;
  Vec2 best[kVecs];
  Vec2 arg[kVecs];
  for (size_t v = 0; v < kVecs; ++v) {
    for (size_t l = 0; l < kVecLanes; ++l) {
      best[v][l] = kLogZero;
      arg[v][l] = 0;
    }
  }
  for (int k = 0; k < count; ++k) {
    Vec2 base, prev;
    for (size_t l = 0; l < kVecLanes; ++l) {
      base[l] = cands[k].delta;
      prev[l] = cands[k].prev;
    }
    const double* row = cands[k].row + nxt0;
    for (size_t v = 0; v < kVecs; ++v) {
      Vec2 t, e;
      __builtin_memcpy(&t, row + v * kVecLanes, sizeof(Vec2));
      __builtin_memcpy(&e, em + nxt0 + v * kVecLanes, sizeof(Vec2));
      const Vec2 score = (base + t) + e;
      const auto better = score > best[v];
      best[v] = better ? score : best[v];
      arg[v] = better ? prev : arg[v];
    }
  }
  double lanes[kWidth];
  __builtin_memcpy(next_row + nxt0, best, sizeof(best));
  __builtin_memcpy(lanes, arg, sizeof(arg));
  for (size_t j = 0; j < kWidth; ++j) {
    bp_row[nxt0 + j] = static_cast<uint8_t>(lanes[j]);
  }
}

}  // namespace

void Step(const StepArgs& a) {
  const int s = a.s;
  const size_t w = a.stride;
  double class_max[TrigramHmm::kMaxDecodeStates];
  int leader[TrigramHmm::kMaxDecodeStates];
  Candidate cands[TrigramHmm::kMaxDecodeStates];
  for (int cur = 0; cur < s; ++cur) {
    const uint8_t* cls = a.row_class + static_cast<size_t>(cur) * s;
    const uint32_t row0 = a.first_row[cur];
    const int classes = static_cast<int>(a.first_row[cur + 1] - row0);
    for (int c = 0; c < classes; ++c) {
      class_max[c] = kLogZero;
      leader[c] = -1;
    }
    for (int prev = 0; prev < s; ++prev) {
      const double d = a.delta[static_cast<size_t>(prev) * w + cur];
      const int c = cls[prev];
      if (d > class_max[c]) {
        class_max[c] = d;
        leader[c] = prev;
      }
    }
    int count = 0;
    for (int prev = 0; prev < s; ++prev) {
      const int c = cls[prev];
      if (prev > leader[c]) continue;  // also every prev of a dead class
      const double d = a.delta[static_cast<size_t>(prev) * w + cur];
      if (prev < leader[c]) {
        if (!(d > kLogZero)) continue;
        const double m = class_max[c];
        const double margin =
            0x1p-49 * (std::fabs(m) + a.row_abs_max[row0 + c] + a.em_abs_max);
        if (m - d > margin) continue;
      }
      cands[count++] = {d, static_cast<double>(prev), a.rows + (row0 + c) * w};
    }
    double* next_row = a.next + static_cast<size_t>(cur) * w;
    uint8_t* bp_row = a.bp + static_cast<size_t>(cur) * w;
    size_t nxt0 = 0;
    for (; nxt0 + 16 <= w; nxt0 += 16) {
      MaxPlusBlock<16>(cands, count, a.em, nxt0, next_row, bp_row);
    }
    switch (w - nxt0) {
      case 12:
        MaxPlusBlock<12>(cands, count, a.em, nxt0, next_row, bp_row);
        break;
      case 8:
        MaxPlusBlock<8>(cands, count, a.em, nxt0, next_row, bp_row);
        break;
      case 4:
        MaxPlusBlock<4>(cands, count, a.em, nxt0, next_row, bp_row);
        break;
      default:
        break;
    }
  }
}

}  // namespace viterbi

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
  if (n == 0 || !finalized_ || num_states_ > kMaxDecodeStates) return;
  const int s = num_states_;
  const size_t w = stride_;
  // Viterbi over tag-pair states (prev, cur): delta[prev * w + cur], rows
  // padded to the kernel stride. Every step writes every next/backpointer
  // entry, so neither is reset; all buffers come from `scratch` and only
  // grow, so steady-state decoding is allocation-free.
  scratch->delta.assign(s * w, kLogZero);
  scratch->next.resize(s * w);
  scratch->emission.assign(w, 0.0);
  scratch->backpointer.resize(n * s * w);
  double* delta = scratch->delta.data();
  double* next = scratch->next.data();
  double* em = scratch->emission.data();

  EmissionLogProbsInto(observations[0], em);
  for (int cur = 0; cur < s; ++cur) {
    // Virtual prev state 0; collapse all (prev,cur) onto prev=0 at t=0.
    delta[cur] = trans1_[cur] + em[cur];
  }
  for (size_t i = 1; i < n; ++i) {
    EmissionLogProbsInto(observations[i], em);
    double em_abs_max = 0.0;
    for (int nxt = 0; nxt < s; ++nxt) {
      em_abs_max = std::max(em_abs_max, std::fabs(em[nxt]));
    }
    const StepTable& table = i == 1 ? first_step_ : steps_;
    viterbi::Step({s, w, table.row_class.data(), table.first_row.data(),
                 table.rows.data(), table.row_abs_max.data(), delta, em,
                 em_abs_max, next, scratch->backpointer.data() + i * s * w});
    std::swap(delta, next);
  }
  // Find best final pair (first maximum in (prev, cur) order).
  int best_prev = 0, best_cur = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (int prev = 0; prev < s; ++prev) {
    for (int cur = 0; cur < s; ++cur) {
      if (delta[prev * w + cur] > best_score) {
        best_score = delta[prev * w + cur];
        best_prev = prev;
        best_cur = cur;
      }
    }
  }
  states->resize(n);
  int cur = best_cur;
  int prev = best_prev;
  (*states)[n - 1] = cur;
  if (n >= 2) (*states)[n - 2] = prev;
  const uint8_t* backpointer = scratch->backpointer.data();
  for (size_t i = n - 1; i >= 2; --i) {
    // A pair no prev reached stores 0, the legacy path's fallback for -1.
    const int prev2 = backpointer[(i * s + prev) * w + cur];
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
