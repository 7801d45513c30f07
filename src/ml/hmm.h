#ifndef WSIE_ML_HMM_H_
#define WSIE_ML_HMM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"

namespace wsie::ml {

/// A labeled training sequence: parallel observation / state-id vectors.
struct LabeledSequence {
  std::vector<std::string> observations;
  std::vector<int> states;
};

/// Trigram (order-3 in the paper's terminology, as MedPost) Hidden Markov
/// Model for sequence labeling, with suffix-based emission back-off for
/// unknown words.
///
/// Transition model: P(t_i | t_{i-2}, t_{i-1}) with deleted-interpolation
/// smoothing over trigram/bigram/unigram estimates. Emission model:
/// P(w | t) with Laplace smoothing; out-of-vocabulary words back off to a
/// suffix model P(t | suffix) of suffix lengths 1..4 inverted via Bayes.
/// Decoding is exact Viterbi over tag-pair states: linear in the sequence
/// length and, before the skip described below, s^3 per token for s tags
/// (every (prev, cur, nxt) transition) — matching the "in principle linear,
/// with large fluctuations in practice" behaviour of Fig. 3(a).
///
/// Hot-path layout: Finalize() interns every vocabulary word and suffix into
/// a StringInterner (arena-backed open addressing, common/flat_map.h) and
/// lays the emission / suffix log-probabilities out as dense id-indexed rows.
/// The view-based Decode() then does one open-addressing probe per token
/// (plus at most kMaxSuffix short probes for OOV words) and zero string
/// hashing or heap allocation in the Viterbi inner loop. The flat rows are
/// filled by the SAME expressions the legacy per-call path evaluates, so
/// decoded outputs are bit-identical. A finalized model is immutable and
/// safe to share across decode threads.
///
/// Decode kernel: Finalize() also stores the transition rows per `cur`,
/// with the `prev` contexts whose rows are bit-identical folded into one
/// row class (unseen trigram contexts all share the interpolated
/// bigram/unigram row). Each step takes `cur` outer and `prev` inner,
/// skips every `prev` that provably cannot be the first maximum for any
/// `nxt` (same row as its class leader, lower delta), and keeps the
/// max-plus over `nxt` in vector registers, with the same add order and the
/// same strict comparison as DecodeLegacy(). Tags are therefore identical
/// to DecodeLegacy(), bit for bit. One step is viterbi::Step()
/// (ml/viterbi_step.h); the proof is in hmm.cc, above it.
class TrigramHmm {
 public:
  /// Reusable Viterbi work buffers. Steady-state decoding allocates nothing:
  /// every buffer is grown once and reused across sentences. One scratch per
  /// thread (stack or thread_local); scratch is never shared.
  struct ViterbiScratch {
    std::vector<double> delta;
    std::vector<double> next;
    std::vector<double> emission;
    std::vector<uint8_t> backpointer;
  };

  /// Decode() stores backpointers as uint8_t, so it decodes models of at
  /// most this many states; a larger model decodes to no states (as an
  /// unfinalized one does). DecodeLegacy() has no such bound.
  static constexpr int kMaxDecodeStates = 255;

  /// Creates a model over `num_states` hidden states.
  explicit TrigramHmm(int num_states);

  /// Accumulates counts from one labeled sequence. Call Finalize() after all
  /// training data has been added.
  void AddTrainingSequence(const LabeledSequence& seq);

  /// Freezes counts into probability tables (transitions, interned
  /// emission/suffix rows). Must be called before Decode(); an
  /// AddTrainingSequence() call un-finalizes the model until the next
  /// Finalize().
  void Finalize();

  /// Viterbi-decodes the most likely state sequence for `observations`.
  /// Returns no states unless the model is finalized and has at most
  /// kMaxDecodeStates states.
  std::vector<int> Decode(const std::vector<std::string>& observations) const;

  /// Allocation-free overload: decodes into `*states` reusing `*scratch`
  /// (left empty unless the model is finalized and has at most
  /// kMaxDecodeStates states). Token views need not outlive the call.
  void Decode(const std::vector<std::string_view>& observations,
              ViterbiScratch* scratch, std::vector<int>* states) const;

  /// The seed (pre-interning) decode path: per-token string-keyed hash-map
  /// lookups and per-position vector allocations. Kept as the reference
  /// implementation for equivalence tests and the bench speedup gate.
  std::vector<int> DecodeLegacy(
      const std::vector<std::string>& observations) const;

  int num_states() const { return num_states_; }
  bool finalized() const { return finalized_; }
  size_t vocabulary_size() const { return word_tag_counts_.size(); }

  /// The interned vocabulary (valid after Finalize()).
  const StringInterner& lexicon() const { return vocab_; }
  /// Resident bytes of the interned lexicon + flat emission/suffix rows.
  size_t lexicon_memory_bytes() const {
    return vocab_.MemoryBytes() + suffixes_.MemoryBytes() +
           (emission_log_.capacity() + suffix_log_.capacity() +
            oov_row_.capacity()) *
               sizeof(double);
  }

 private:
  /// Table-backed after Finalize(); -1 in t2/t1 selects the lower-order
  /// tables (sequence starts).
  double LogTransition(int t2, int t1, int t0) const;
  /// Direct interpolated computation (used to fill the tables).
  double ComputeLogTransition(int t2, int t1, int t0) const;
  /// Per-tag emission log-probabilities for `word` (uses suffix back-off for
  /// unknown words). Legacy per-call path; also fills the flat tables so the
  /// two stay bit-identical by construction.
  std::vector<double> EmissionLogProbs(const std::string& word) const;
  /// Writes the suffix back-off row for `counts` into out[0..num_states).
  /// Returns false when the suffix has no counts (row not written).
  bool ComputeSuffixRow(const std::vector<uint32_t>& counts,
                        double* out) const;
  /// Flat-table emission row for `word` into out[0..num_states). Requires
  /// Finalize().
  void EmissionLogProbsInto(std::string_view word, double* out) const;

  int num_states_;
  bool finalized_ = false;

  // Raw counts.
  std::unordered_map<std::string, std::vector<uint32_t>> word_tag_counts_;
  std::vector<uint64_t> tag_counts_;
  std::vector<std::vector<uint64_t>> bigram_counts_;   // [t1][t0]
  std::unordered_map<uint64_t, uint64_t> trigram_counts_;  // key(t2,t1,t0)
  std::unordered_map<std::string, std::vector<uint32_t>> suffix_tag_counts_;
  uint64_t total_tags_ = 0;

  // Interpolation weights (computed in Finalize()).
  double lambda1_ = 0.1, lambda2_ = 0.3, lambda3_ = 0.6;

  // Dense log-probability tables precomputed by Finalize() so that Decode()
  // does no hashing in its inner loop. Left empty for a model over more than
  // kMaxDecodeStates states, which only DecodeLegacy() decodes.
  std::vector<double> trans3_;  // [t2][t1][t0]
  std::vector<double> trans2_;  // [t1][t0] (no trigram context)
  std::vector<double> trans1_;  // [t0]

  /// The transition rows of one Viterbi step as the decode kernel reads
  /// them: for each `cur`, one stored row per class of bit-identical `prev`
  /// rows, padded from s to stride_ entries with kLogZero.
  struct StepTable {
    std::vector<uint8_t> row_class;   // [cur * s + prev] -> class of cur
    std::vector<uint32_t> first_row;  // [cur] -> row of class 0; [s] = rows
    std::vector<double> rows;         // [row * stride_ + nxt]
    std::vector<double> row_abs_max;  // [row] -> max |rows[row][nxt < s]|
  };
  void BuildStepTable(bool first_step, StepTable* table) const;

  size_t stride_ = 0;     // s rounded up to a multiple of 4
  StepTable first_step_;  // step 1: every prev reads the bigram row trans2_
  StepTable steps_;       // steps 2..n-1: the trigram rows trans3_

  // Interned lexicon (built by Finalize()): word id -> flat emission row,
  // suffix id -> flat back-off row, plus the shared uniform OOV row.
  StringInterner vocab_;
  StringInterner suffixes_;
  std::vector<double> emission_log_;  // [word_id * num_states + tag]
  std::vector<double> suffix_log_;    // [suffix_id * num_states + tag]
  std::vector<double> oov_row_;       // [tag]

  static uint64_t TrigramKey(int t2, int t1, int t0) {
    return (static_cast<uint64_t>(t2) << 32) |
           (static_cast<uint64_t>(t1) << 16) | static_cast<uint64_t>(t0);
  }
};

}  // namespace wsie::ml

#endif  // WSIE_ML_HMM_H_
