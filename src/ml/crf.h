#ifndef WSIE_ML_CRF_H_
#define WSIE_ML_CRF_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wsie::ml {

/// Hashed feature vector for one sequence position. Features are strings
/// hashed into a fixed-dimension weight space (feature hashing keeps model
/// memory bounded and configurable — one of the Sect. 5 wishes: "research in
/// more robust NER tools, with configurable memory consumption").
using PositionFeatures = std::vector<uint64_t>;

/// Stable 64-bit FNV-1a string hash used for feature hashing. Equivalent to
/// Fnv1a(feature, kFnv1aShortBasis), so streaming extractors can continue
/// the hash from a template-prefix seed (common/hash.h).
uint64_t HashFeature(std::string_view feature);

/// Flat per-sentence hashed-feature storage: all position features live in
/// one contiguous buffer with CSR-style offsets, refilled in place each
/// sentence so the steady state allocates nothing. Replaces
/// `std::vector<PositionFeatures>` (a heap block per position) on the decode
/// hot path; feature ORDER within a position is preserved, which keeps
/// StateScores summation order — and thus decoded output — bit-identical.
class HashedFeatureMatrix {
 public:
  /// Clears all positions; keeps capacity.
  void Reset() {
    hashes_.clear();
    offsets_.clear();
    offsets_.push_back(0);
  }
  /// Appends one hashed feature to the position being built.
  void Add(uint64_t hash) { hashes_.push_back(hash); }
  /// Seals the position being built; subsequent Add()s start the next one.
  void FinishPosition() {
    offsets_.push_back(static_cast<uint32_t>(hashes_.size()));
  }

  size_t num_positions() const { return offsets_.size() - 1; }
  const uint64_t* position_data(size_t pos) const {
    return hashes_.data() + offsets_[pos];
  }
  size_t position_size(size_t pos) const {
    return offsets_[pos + 1] - offsets_[pos];
  }

 private:
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> offsets_ = {0};
};

/// A training instance: per-position features and gold label ids.
struct CrfInstance {
  std::vector<PositionFeatures> features;
  std::vector<int> labels;
};

/// Training options for the linear-chain CRF.
struct CrfTrainOptions {
  int epochs = 8;
  double learning_rate = 0.1;
  double l2 = 1e-6;
  uint64_t shuffle_seed = 42;
};

/// Linear-chain Conditional Random Field.
///
/// The model class behind the paper's ML-based entity taggers (BANNER,
/// ChemSpot, and the in-house disease tagger all build on Mallet CRFs).
/// Implements exact inference: forward-backward for training gradients and
/// Viterbi for decoding. Trained with stochastic gradient descent on the
/// L2-regularized conditional log-likelihood.
class LinearChainCrf {
 public:
  /// Reusable Viterbi work buffers for the allocation-free Decode overload.
  /// One scratch per thread; never shared.
  struct DecodeScratch {
    std::vector<double> delta;
    std::vector<int> backpointer;
    std::vector<double> scores;
  };

  /// `num_labels` output labels; feature weights are hashed into
  /// `feature_dim` buckets per label.
  LinearChainCrf(int num_labels, size_t feature_dim = 1 << 18);

  /// Trains from scratch on `data`.
  void Train(const std::vector<CrfInstance>& data,
             const CrfTrainOptions& options = {});

  /// Viterbi-decodes the best label sequence.
  std::vector<int> Decode(
      const std::vector<PositionFeatures>& features) const;

  /// Allocation-free overload over a flat feature matrix: decodes into
  /// `*labels` reusing `*scratch`. Bit-identical to the vector overload for
  /// the same features in the same per-position order.
  void Decode(const HashedFeatureMatrix& features, DecodeScratch* scratch,
              std::vector<int>* labels) const;

  /// Per-sequence conditional log-likelihood of `instance` (diagnostics).
  double LogLikelihood(const CrfInstance& instance) const;

  int num_labels() const { return num_labels_; }
  size_t feature_dim() const { return feature_dim_; }

  /// Model memory footprint in bytes (weights only).
  size_t ApproxMemoryBytes() const {
    return (state_weights_.size() + transition_weights_.size()) *
           sizeof(double);
  }

 private:
  /// Unnormalized per-label scores at one position.
  void StateScores(const PositionFeatures& feats,
                   std::vector<double>& out) const;
  /// Same scores over a raw hash span, written into out[0..num_labels).
  void StateScoresInto(const uint64_t* feats, size_t count,
                       double* out) const;
  /// Forward-backward; returns log partition function. `alpha`/`beta` are
  /// [n][L] matrices in log space.
  double ForwardBackward(const std::vector<PositionFeatures>& features,
                         std::vector<std::vector<double>>& alpha,
                         std::vector<std::vector<double>>& beta) const;
  void AccumulateGradient(const CrfInstance& instance, double scale,
                          std::vector<double>& state_grad,
                          std::vector<double>& trans_grad) const;

  size_t StateIndex(uint64_t hashed_feature, int label) const {
    return (hashed_feature % feature_dim_) * num_labels_ + label;
  }

  int num_labels_;
  size_t feature_dim_;
  std::vector<double> state_weights_;       // [feature_dim_ * num_labels_]
  std::vector<double> transition_weights_;  // [num_labels_ * num_labels_]
};

}  // namespace wsie::ml

#endif  // WSIE_ML_CRF_H_
