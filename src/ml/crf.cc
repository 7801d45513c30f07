#include "ml/crf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/hash.h"
#include "common/rng.h"

namespace wsie::ml {
namespace {

double LogSumExp(const std::vector<double>& xs) {
  double max_x = -std::numeric_limits<double>::infinity();
  for (double x : xs) max_x = std::max(max_x, x);
  if (!std::isfinite(max_x)) return max_x;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - max_x);
  return max_x + std::log(sum);
}

}  // namespace

uint64_t HashFeature(std::string_view feature) {
  return Fnv1a(feature, kFnv1aShortBasis);
}

LinearChainCrf::LinearChainCrf(int num_labels, size_t feature_dim)
    : num_labels_(num_labels),
      feature_dim_(feature_dim),
      state_weights_(feature_dim * num_labels, 0.0),
      transition_weights_(static_cast<size_t>(num_labels) * num_labels, 0.0) {}

void LinearChainCrf::StateScores(const PositionFeatures& feats,
                                 std::vector<double>& out) const {
  out.assign(num_labels_, 0.0);
  for (uint64_t f : feats) {
    size_t base = (f % feature_dim_) * num_labels_;
    for (int l = 0; l < num_labels_; ++l) out[l] += state_weights_[base + l];
  }
}

void LinearChainCrf::StateScoresInto(const uint64_t* feats, size_t count,
                                     double* out) const {
  // Identical summation order to StateScores, so scores (and therefore
  // decoded labels) match the vector path bit for bit.
  std::fill(out, out + num_labels_, 0.0);
  for (size_t i = 0; i < count; ++i) {
    size_t base = (feats[i] % feature_dim_) * num_labels_;
    for (int l = 0; l < num_labels_; ++l) out[l] += state_weights_[base + l];
  }
}

double LinearChainCrf::ForwardBackward(
    const std::vector<PositionFeatures>& features,
    std::vector<std::vector<double>>& alpha,
    std::vector<std::vector<double>>& beta) const {
  const size_t n = features.size();
  const int L = num_labels_;
  alpha.assign(n, std::vector<double>(L, 0.0));
  beta.assign(n, std::vector<double>(L, 0.0));
  std::vector<double> scores;
  std::vector<double> tmp(L);

  // Forward.
  StateScores(features[0], scores);
  for (int l = 0; l < L; ++l) alpha[0][l] = scores[l];
  for (size_t i = 1; i < n; ++i) {
    StateScores(features[i], scores);
    for (int cur = 0; cur < L; ++cur) {
      for (int prev = 0; prev < L; ++prev) {
        tmp[prev] = alpha[i - 1][prev] +
                    transition_weights_[static_cast<size_t>(prev) * L + cur];
      }
      alpha[i][cur] = LogSumExp(tmp) + scores[cur];
    }
  }
  // Backward.
  for (int l = 0; l < L; ++l) beta[n - 1][l] = 0.0;
  for (size_t i = n - 1; i > 0; --i) {
    StateScores(features[i], scores);
    for (int prev = 0; prev < L; ++prev) {
      for (int cur = 0; cur < L; ++cur) {
        tmp[cur] = transition_weights_[static_cast<size_t>(prev) * L + cur] +
                   scores[cur] + beta[i][cur];
      }
      beta[i - 1][prev] = LogSumExp(tmp);
    }
  }
  return LogSumExp(alpha[n - 1]);
}

void LinearChainCrf::AccumulateGradient(const CrfInstance& instance,
                                        double scale,
                                        std::vector<double>& state_grad,
                                        std::vector<double>& trans_grad) const {
  const auto& features = instance.features;
  const size_t n = features.size();
  const int L = num_labels_;
  if (n == 0) return;

  std::vector<std::vector<double>> alpha, beta;
  double log_z = ForwardBackward(features, alpha, beta);

  std::vector<double> scores;
  // Empirical minus expected counts.
  for (size_t i = 0; i < n; ++i) {
    // Empirical state features.
    int gold = instance.labels[i];
    for (uint64_t f : features[i]) {
      state_grad[StateIndex(f, gold)] += scale;
    }
    // Expected state features: marginal P(y_i = l).
    for (int l = 0; l < L; ++l) {
      double marginal = std::exp(alpha[i][l] + beta[i][l] - log_z);
      for (uint64_t f : features[i]) {
        state_grad[StateIndex(f, l)] -= scale * marginal;
      }
    }
  }
  for (size_t i = 1; i < n; ++i) {
    int gold_prev = instance.labels[i - 1];
    int gold_cur = instance.labels[i];
    trans_grad[static_cast<size_t>(gold_prev) * L + gold_cur] += scale;
    StateScores(features[i], scores);
    for (int prev = 0; prev < L; ++prev) {
      for (int cur = 0; cur < L; ++cur) {
        double marginal =
            std::exp(alpha[i - 1][prev] +
                     transition_weights_[static_cast<size_t>(prev) * L + cur] +
                     scores[cur] + beta[i][cur] - log_z);
        trans_grad[static_cast<size_t>(prev) * L + cur] -= scale * marginal;
      }
    }
  }
}

void LinearChainCrf::Train(const std::vector<CrfInstance>& data,
                           const CrfTrainOptions& options) {
  std::vector<size_t> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(options.shuffle_seed);

  std::vector<double> state_grad(state_weights_.size(), 0.0);
  std::vector<double> trans_grad(transition_weights_.size(), 0.0);

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(order);
    double lr = options.learning_rate / (1.0 + 0.5 * epoch);
    for (size_t idx : order) {
      const CrfInstance& instance = data[idx];
      if (instance.features.empty()) continue;
      // Sparse gradient: only touched state indices are nonzero, but we use
      // dense accumulation per instance for transitions (small) and a
      // touched-list for states.
      std::fill(trans_grad.begin(), trans_grad.end(), 0.0);
      // Record touched state indices to zero them afterwards.
      std::vector<size_t> touched;
      touched.reserve(instance.features.size() * num_labels_ * 4);
      for (const auto& feats : instance.features) {
        for (uint64_t f : feats) {
          size_t base = (f % feature_dim_) * num_labels_;
          for (int l = 0; l < num_labels_; ++l) touched.push_back(base + l);
        }
      }
      AccumulateGradient(instance, 1.0, state_grad, trans_grad);
      for (size_t sidx : touched) {
        if (state_grad[sidx] != 0.0) {
          state_weights_[sidx] +=
              lr * (state_grad[sidx] - options.l2 * state_weights_[sidx]);
          state_grad[sidx] = 0.0;
        }
      }
      for (size_t t = 0; t < trans_grad.size(); ++t) {
        transition_weights_[t] +=
            lr * (trans_grad[t] - options.l2 * transition_weights_[t]);
      }
    }
  }
}

std::vector<int> LinearChainCrf::Decode(
    const std::vector<PositionFeatures>& features) const {
  const size_t n = features.size();
  if (n == 0) return {};
  const int L = num_labels_;
  std::vector<std::vector<double>> delta(n, std::vector<double>(L, 0.0));
  std::vector<std::vector<int>> backpointer(n, std::vector<int>(L, 0));
  std::vector<double> scores;

  StateScores(features[0], scores);
  for (int l = 0; l < L; ++l) delta[0][l] = scores[l];
  for (size_t i = 1; i < n; ++i) {
    StateScores(features[i], scores);
    for (int cur = 0; cur < L; ++cur) {
      double best = -std::numeric_limits<double>::infinity();
      int best_prev = 0;
      for (int prev = 0; prev < L; ++prev) {
        double s = delta[i - 1][prev] +
                   transition_weights_[static_cast<size_t>(prev) * L + cur];
        if (s > best) {
          best = s;
          best_prev = prev;
        }
      }
      delta[i][cur] = best + scores[cur];
      backpointer[i][cur] = best_prev;
    }
  }
  std::vector<int> labels(n);
  int best_last = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (int l = 0; l < L; ++l) {
    if (delta[n - 1][l] > best_score) {
      best_score = delta[n - 1][l];
      best_last = l;
    }
  }
  labels[n - 1] = best_last;
  for (size_t i = n - 1; i > 0; --i) {
    labels[i - 1] = backpointer[i][labels[i]];
  }
  return labels;
}

void LinearChainCrf::Decode(const HashedFeatureMatrix& features,
                            DecodeScratch* scratch,
                            std::vector<int>* labels) const {
  const size_t n = features.num_positions();
  labels->clear();
  if (n == 0) return;
  const int L = num_labels_;
  // Flat [n][L] tables out of the reusable scratch — steady-state decoding
  // allocates nothing.
  scratch->delta.resize(n * static_cast<size_t>(L));
  scratch->backpointer.resize(n * static_cast<size_t>(L));
  scratch->scores.resize(L);
  double* delta = scratch->delta.data();
  int* backpointer = scratch->backpointer.data();
  double* scores = scratch->scores.data();

  StateScoresInto(features.position_data(0), features.position_size(0),
                  scores);
  for (int l = 0; l < L; ++l) delta[l] = scores[l];
  for (size_t i = 1; i < n; ++i) {
    StateScoresInto(features.position_data(i), features.position_size(i),
                    scores);
    const double* delta_prev = delta + (i - 1) * L;
    double* delta_cur = delta + i * L;
    int* bp = backpointer + i * L;
    for (int cur = 0; cur < L; ++cur) {
      double best = -std::numeric_limits<double>::infinity();
      int best_prev = 0;
      for (int prev = 0; prev < L; ++prev) {
        double s = delta_prev[prev] +
                   transition_weights_[static_cast<size_t>(prev) * L + cur];
        if (s > best) {
          best = s;
          best_prev = prev;
        }
      }
      delta_cur[cur] = best + scores[cur];
      bp[cur] = best_prev;
    }
  }
  labels->resize(n);
  int best_last = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  const double* delta_last = delta + (n - 1) * L;
  for (int l = 0; l < L; ++l) {
    if (delta_last[l] > best_score) {
      best_score = delta_last[l];
      best_last = l;
    }
  }
  (*labels)[n - 1] = best_last;
  for (size_t i = n - 1; i > 0; --i) {
    (*labels)[i - 1] = backpointer[i * L + (*labels)[i]];
  }
}

double LinearChainCrf::LogLikelihood(const CrfInstance& instance) const {
  const auto& features = instance.features;
  const size_t n = features.size();
  if (n == 0) return 0.0;
  std::vector<std::vector<double>> alpha, beta;
  double log_z = ForwardBackward(features, alpha, beta);
  double gold = 0.0;
  std::vector<double> scores;
  for (size_t i = 0; i < n; ++i) {
    StateScores(features[i], scores);
    gold += scores[instance.labels[i]];
    if (i > 0) {
      gold += transition_weights_[static_cast<size_t>(instance.labels[i - 1]) *
                                      num_labels_ +
                                  instance.labels[i]];
    }
  }
  return gold - log_z;
}

}  // namespace wsie::ml
