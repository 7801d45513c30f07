#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/crf.h"
#include "ml/hmm.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/stats.h"

namespace wsie::ml {
namespace {

// ------------------------------------------------------------ NaiveBayes

text::TermCounts Counts(std::initializer_list<std::pair<const char*, int>> items) {
  text::TermCounts counts;
  for (const auto& [term, n] : items) counts[term] = static_cast<uint32_t>(n);
  return counts;
}

TEST(NaiveBayesTest, LearnsSeparableClasses) {
  NaiveBayesClassifier nb({"bio", "web"});
  for (int i = 0; i < 20; ++i) {
    nb.Update(0, Counts({{"gene", 2}, {"protein", 1}, {"disease", 1}}));
    nb.Update(1, Counts({{"shop", 2}, {"price", 1}, {"deal", 1}}));
  }
  EXPECT_EQ(nb.Predict(Counts({{"gene", 1}, {"disease", 1}})), 0u);
  EXPECT_EQ(nb.Predict(Counts({{"price", 1}, {"shop", 1}})), 1u);
}

TEST(NaiveBayesTest, PosteriorsSumToOne) {
  NaiveBayesClassifier nb({"a", "b", "c"});
  nb.Update(0, Counts({{"x", 1}}));
  nb.Update(1, Counts({{"y", 1}}));
  nb.Update(2, Counts({{"z", 1}}));
  auto probs = nb.PredictProbabilities(Counts({{"x", 1}, {"q", 1}}));
  double sum = probs[0] + probs[1] + probs[2];
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(probs[0], probs[1]);
}

TEST(NaiveBayesTest, IncrementalUpdateShiftsDecision) {
  NaiveBayesClassifier nb({"a", "b"});
  nb.Update(0, Counts({{"term", 5}}));
  nb.Update(1, Counts({{"other", 5}}));
  EXPECT_EQ(nb.Predict(Counts({{"term", 1}})), 0u);
  // Flood class b with "term": the model, updated incrementally, flips.
  for (int i = 0; i < 50; ++i) nb.Update(1, Counts({{"term", 10}}));
  EXPECT_EQ(nb.Predict(Counts({{"term", 1}})), 1u);
}

TEST(NaiveBayesTest, RobustToClassImbalance) {
  // 50:1 imbalance; the minority class still wins on its own vocabulary.
  NaiveBayesClassifier nb({"minority", "majority"});
  nb.Update(0, Counts({{"rarepattern", 3}}));
  for (int i = 0; i < 50; ++i) nb.Update(1, Counts({{"common", 3}}));
  EXPECT_EQ(nb.Predict(Counts({{"rarepattern", 2}})), 0u);
}

TEST(NaiveBayesTest, EmptyFeaturesFallBackToPrior) {
  NaiveBayesClassifier nb({"a", "b"});
  for (int i = 0; i < 9; ++i) nb.Update(0, Counts({{"x", 1}}));
  nb.Update(1, Counts({{"y", 1}}));
  EXPECT_EQ(nb.Predict(Counts({})), 0u);  // prior favours class 0
}

TEST(NaiveBayesTest, TracksVocabularyAndMemory) {
  NaiveBayesClassifier nb({"a", "b"});
  nb.Update(0, Counts({{"x", 1}, {"y", 1}}));
  EXPECT_EQ(nb.vocabulary_size(), 2u);
  EXPECT_EQ(nb.documents_seen(), 1u);
  EXPECT_GT(nb.ApproxMemoryBytes(), 0u);
}

// ------------------------------------------------------------ HMM

LabeledSequence Seq(std::initializer_list<const char*> words,
                    std::initializer_list<int> states) {
  LabeledSequence s;
  for (const char* w : words) s.observations.push_back(w);
  s.states.assign(states);
  return s;
}

TEST(HmmTest, DecodesTrainedPattern) {
  // Two states: 0 = determiner-ish, 1 = noun-ish, alternating.
  TrigramHmm hmm(2);
  for (int i = 0; i < 30; ++i) {
    hmm.AddTrainingSequence(Seq({"the", "dog", "the", "cat"}, {0, 1, 0, 1}));
    hmm.AddTrainingSequence(Seq({"a", "gene", "the", "cell"}, {0, 1, 0, 1}));
  }
  hmm.Finalize();
  std::vector<int> decoded = hmm.Decode({"the", "gene"});
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], 0);
  EXPECT_EQ(decoded[1], 1);
}

TEST(HmmTest, SuffixBackoffHandlesUnknownWords) {
  TrigramHmm hmm(2);
  for (int i = 0; i < 40; ++i) {
    hmm.AddTrainingSequence(
        Seq({"the", "running", "the", "walking"}, {0, 1, 0, 1}));
    hmm.AddTrainingSequence(Seq({"a", "jumping"}, {0, 1}));
  }
  hmm.Finalize();
  // "swimming" is OOV; its -ing suffix indicates state 1.
  std::vector<int> decoded = hmm.Decode({"the", "swimming"});
  EXPECT_EQ(decoded[1], 1);
}

TEST(HmmTest, SingleTokenSequence) {
  TrigramHmm hmm(2);
  for (int i = 0; i < 10; ++i) {
    hmm.AddTrainingSequence(Seq({"yes"}, {1}));
  }
  hmm.Finalize();
  std::vector<int> decoded = hmm.Decode({"yes"});
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], 1);
}

TEST(HmmTest, EmptySequence) {
  TrigramHmm hmm(2);
  hmm.AddTrainingSequence(Seq({"x"}, {0}));
  hmm.Finalize();
  EXPECT_TRUE(hmm.Decode({}).empty());
}

TEST(HmmTest, DecodeRequiresFinalize) {
  TrigramHmm hmm(2);
  hmm.AddTrainingSequence(Seq({"the", "dog"}, {0, 1}));
  EXPECT_TRUE(hmm.Decode({"the", "dog"}).empty());
  hmm.Finalize();
  EXPECT_EQ(hmm.Decode({"the", "dog"}).size(), 2u);
  // Training after Finalize() un-finalizes the model: decoding must not mix
  // the stale transition tables with the new counts.
  hmm.AddTrainingSequence(Seq({"a", "cat"}, {0, 1}));
  EXPECT_FALSE(hmm.finalized());
  EXPECT_TRUE(hmm.Decode({"a", "cat"}).empty());
  hmm.Finalize();
  EXPECT_EQ(hmm.Decode({"a", "cat"}), (std::vector<int>{0, 1}));
}

TEST(HmmTest, DecodeRefusesMoreStatesThanBackpointersHold) {
  // Decode() keeps uint8_t backpointers: a model over more states decodes to
  // no states, as an unfinalized one does. The legacy path has no bound.
  const int s = TrigramHmm::kMaxDecodeStates + 1;
  TrigramHmm hmm(s);
  hmm.AddTrainingSequence(Seq({"the", "dog"}, {0, s - 1}));
  hmm.Finalize();
  EXPECT_TRUE(hmm.finalized());
  EXPECT_TRUE(hmm.Decode({"the", "dog"}).empty());
  EXPECT_EQ(hmm.DecodeLegacy({"dog"}), (std::vector<int>{s - 1}));
}

TEST(HmmTest, DecodeIsDeterministic) {
  TrigramHmm hmm(3);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    LabeledSequence s;
    for (int j = 0; j < 8; ++j) {
      int state = static_cast<int>(rng.Uniform(3));
      s.observations.push_back("w" + std::to_string(state));
      s.states.push_back(state);
    }
    hmm.AddTrainingSequence(s);
  }
  hmm.Finalize();
  std::vector<std::string> input = {"w0", "w1", "w2", "w0", "w1"};
  EXPECT_EQ(hmm.Decode(input), hmm.Decode(input));
}

TEST(HmmTest, TrigramContextDisambiguates) {
  // State of third symbol depends on the two previous states.
  TrigramHmm hmm(3);
  for (int i = 0; i < 50; ++i) {
    hmm.AddTrainingSequence(Seq({"a", "b", "x"}, {0, 1, 2}));
    hmm.AddTrainingSequence(Seq({"b", "a", "x"}, {1, 0, 0}));
  }
  hmm.Finalize();
  EXPECT_EQ(hmm.Decode({"a", "b", "x"})[2], 2);
  EXPECT_EQ(hmm.Decode({"b", "a", "x"})[2], 0);
}

// ------------------------------------------------------------ CRF

PositionFeatures Feats(std::initializer_list<const char*> names) {
  PositionFeatures f;
  for (const char* n : names) f.push_back(HashFeature(n));
  return f;
}

TEST(CrfTest, HashFeatureIsStable) {
  EXPECT_EQ(HashFeature("w=gene"), HashFeature("w=gene"));
  EXPECT_NE(HashFeature("w=gene"), HashFeature("w=genes"));
}

TEST(CrfTest, LearnsSimpleTagging) {
  // Label 1 iff feature "isgene" present.
  LinearChainCrf crf(2, 1 << 10);
  std::vector<CrfInstance> data;
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    CrfInstance instance;
    for (int j = 0; j < 6; ++j) {
      bool gene = rng.Bernoulli(0.3);
      instance.features.push_back(gene ? Feats({"isgene", "word"})
                                       : Feats({"plain", "word"}));
      instance.labels.push_back(gene ? 1 : 0);
    }
    data.push_back(std::move(instance));
  }
  crf.Train(data);
  std::vector<PositionFeatures> test = {Feats({"plain", "word"}),
                                        Feats({"isgene", "word"}),
                                        Feats({"plain", "word"})};
  std::vector<int> labels = crf.Decode(test);
  EXPECT_EQ(labels, (std::vector<int>{0, 1, 0}));
}

TEST(CrfTest, LearnsTransitionStructure) {
  // Emission features are identical everywhere; only transitions carry
  // signal: label sequence always 0,1,0,1...
  LinearChainCrf crf(2, 1 << 8);
  std::vector<CrfInstance> data;
  for (int i = 0; i < 40; ++i) {
    CrfInstance instance;
    for (int j = 0; j < 8; ++j) {
      instance.features.push_back(Feats({j == 0 ? "start" : "mid"}));
      instance.labels.push_back(j % 2);
    }
    data.push_back(std::move(instance));
  }
  crf.Train(data);
  std::vector<PositionFeatures> test;
  for (int j = 0; j < 8; ++j)
    test.push_back(Feats({j == 0 ? "start" : "mid"}));
  std::vector<int> labels = crf.Decode(test);
  for (int j = 0; j < 8; ++j) EXPECT_EQ(labels[j], j % 2) << "position " << j;
}

TEST(CrfTest, TrainingImprovesLikelihood) {
  LinearChainCrf crf(2, 1 << 8);
  CrfInstance instance;
  instance.features = {Feats({"a"}), Feats({"b"}), Feats({"a"})};
  instance.labels = {0, 1, 0};
  double before = crf.LogLikelihood(instance);
  crf.Train({instance});
  double after = crf.LogLikelihood(instance);
  EXPECT_GT(after, before);
}

TEST(CrfTest, DecodeEmptyInput) {
  LinearChainCrf crf(3);
  EXPECT_TRUE(crf.Decode({}).empty());
}

TEST(CrfTest, MemoryScalesWithFeatureDim) {
  LinearChainCrf small(3, 1 << 8), big(3, 1 << 12);
  EXPECT_LT(small.ApproxMemoryBytes(), big.ApproxMemoryBytes());
}

// ------------------------------------------------------------ metrics

TEST(MetricsTest, ConfusionMath) {
  BinaryConfusion c;
  c.true_positives = 8;
  c.false_positives = 2;
  c.false_negatives = 4;
  c.true_negatives = 86;
  EXPECT_NEAR(c.Precision(), 0.8, 1e-9);
  EXPECT_NEAR(c.Recall(), 8.0 / 12.0, 1e-9);
  EXPECT_NEAR(c.Accuracy(), 0.94, 1e-9);
  double p = 0.8, r = 8.0 / 12.0;
  EXPECT_NEAR(c.F1(), 2 * p * r / (p + r), 1e-9);
}

TEST(MetricsTest, ConfusionAdd) {
  BinaryConfusion c;
  c.Add(true, true);
  c.Add(true, false);
  c.Add(false, true);
  c.Add(false, false);
  EXPECT_EQ(c.true_positives, 1u);
  EXPECT_EQ(c.false_positives, 1u);
  EXPECT_EQ(c.false_negatives, 1u);
  EXPECT_EQ(c.true_negatives, 1u);
  EXPECT_EQ(c.total(), 4u);
}

TEST(MetricsTest, EmptyConfusionIsZeroNotNan) {
  BinaryConfusion c;
  EXPECT_EQ(c.Precision(), 0.0);
  EXPECT_EQ(c.Recall(), 0.0);
  EXPECT_EQ(c.F1(), 0.0);
}

TEST(MetricsTest, KFoldPartitionsAllItems) {
  auto folds = KFoldSplits(103, 10);
  ASSERT_EQ(folds.size(), 10u);
  size_t total = 0;
  std::vector<bool> seen(103, false);
  for (const auto& fold : folds) {
    total += fold.size();
    for (size_t idx : fold) {
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
  EXPECT_EQ(total, 103u);
}

TEST(MetricsTest, KFoldMoreFoldsThanItems) {
  auto folds = KFoldSplits(3, 10);
  EXPECT_EQ(folds.size(), 3u);
}

TEST(MetricsTest, SummarizeFoldsAverages) {
  BinaryConfusion perfect;
  perfect.true_positives = 10;
  perfect.true_negatives = 10;
  BinaryConfusion half;
  half.true_positives = 5;
  half.false_positives = 5;
  half.false_negatives = 5;
  half.true_negatives = 5;
  auto result = SummarizeFolds({perfect, half});
  EXPECT_NEAR(result.mean_precision, 0.75, 1e-9);
  EXPECT_NEAR(result.mean_recall, 0.75, 1e-9);
}

// ------------------------------------------------------------ stats

TEST(StatsTest, DescribeBasics) {
  Descriptive d = Describe({1, 2, 3, 4, 5});
  EXPECT_EQ(d.n, 5u);
  EXPECT_DOUBLE_EQ(d.mean, 3.0);
  EXPECT_DOUBLE_EQ(d.median, 3.0);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.max, 5.0);
  EXPECT_NEAR(d.stddev, std::sqrt(2.5), 1e-9);
}

TEST(StatsTest, DescribeEmpty) {
  Descriptive d = Describe({});
  EXPECT_EQ(d.n, 0u);
  EXPECT_EQ(d.mean, 0.0);
}

TEST(StatsTest, MwwIdenticalSamplesNotSignificant) {
  std::vector<double> a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  MannWhitneyResult r = MannWhitneyU(a, a);
  EXPECT_GT(r.p_value, 0.5);
}

TEST(StatsTest, MwwShiftedSamplesSignificant) {
  std::vector<double> a, b;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    a.push_back(rng.Gaussian(0.0, 1.0));
    b.push_back(rng.Gaussian(3.0, 1.0));
  }
  MannWhitneyResult r = MannWhitneyU(a, b);
  EXPECT_LT(r.p_value, 0.01);
}

TEST(StatsTest, MwwSymmetric) {
  std::vector<double> a = {1, 5, 2, 8, 3};
  std::vector<double> b = {9, 4, 7, 6, 10};
  EXPECT_NEAR(MannWhitneyU(a, b).p_value, MannWhitneyU(b, a).p_value, 1e-9);
}

TEST(StatsTest, MwwHandlesTies) {
  std::vector<double> a = {1, 1, 1, 2, 2};
  std::vector<double> b = {2, 2, 3, 3, 3};
  MannWhitneyResult r = MannWhitneyU(a, b);
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
  EXPECT_LT(r.p_value, 0.2);  // clear shift despite ties
}

TEST(StatsTest, MwwEmptyInput) {
  EXPECT_EQ(MannWhitneyU({}, {1.0}).p_value, 1.0);
}

TEST(StatsTest, NormalizeCountsSumsToOne) {
  Distribution d = NormalizeCounts({{"a", 3}, {"b", 1}});
  EXPECT_NEAR(d["a"], 0.75, 1e-9);
  EXPECT_NEAR(d["b"], 0.25, 1e-9);
}

TEST(StatsTest, JsdIdenticalIsZero) {
  Distribution p = NormalizeCounts({{"a", 1}, {"b", 1}});
  EXPECT_NEAR(JensenShannonDivergence(p, p), 0.0, 1e-9);
}

TEST(StatsTest, JsdDisjointIsOne) {
  Distribution p = NormalizeCounts({{"a", 1}});
  Distribution q = NormalizeCounts({{"b", 1}});
  EXPECT_NEAR(JensenShannonDivergence(p, q), 1.0, 1e-6);
}

TEST(StatsTest, JsdSymmetricAndBounded) {
  Distribution p = NormalizeCounts({{"a", 5}, {"b", 2}, {"c", 1}});
  Distribution q = NormalizeCounts({{"b", 4}, {"c", 3}, {"d", 2}});
  double pq = JensenShannonDivergence(p, q);
  double qp = JensenShannonDivergence(q, p);
  EXPECT_NEAR(pq, qp, 1e-9);
  EXPECT_GT(pq, 0.0);
  EXPECT_LT(pq, 1.0);
}

TEST(StatsTest, KlAsymmetric) {
  Distribution p = NormalizeCounts({{"a", 9}, {"b", 1}});
  Distribution q = NormalizeCounts({{"a", 5}, {"b", 5}});
  EXPECT_NE(KlDivergence(p, q), KlDivergence(q, p));
}

}  // namespace
}  // namespace wsie::ml
