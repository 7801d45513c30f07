#ifndef WSIE_CORE_ANALYSIS_CONTEXT_H_
#define WSIE_CORE_ANALYSIS_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "corpus/document.h"
#include "corpus/lexicon.h"
#include "ie/crf_tagger.h"
#include "ie/dictionary_tagger.h"
#include "nlp/abbreviation.h"
#include "nlp/linguistic.h"
#include "nlp/pos_tagger.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace wsie::core {

/// Tuning for the shared analysis context.
struct AnalysisContextConfig {
  /// Sentences of Medline-register gold data per CRF tagger.
  size_t crf_training_sentences = 1200;
  ml::CrfTrainOptions crf_train_options = {/*epochs=*/6, /*learning_rate=*/0.1,
                                           /*l2=*/1e-6, /*shuffle_seed=*/7};
  size_t pos_training_sentences = 4000;
  /// Hard sentence-length cap for the POS tagger (tokens); 0 = unlimited.
  size_t pos_max_tokens = 1000;
  uint64_t seed = 4242;
  /// Fraction of each lexicon present in the dictionaries. Dictionaries are
  /// "necessarily incomplete in a field developing as fast as biomedical
  /// research" (Sect. 3.2) — dictionary matching therefore has good
  /// precision but low recall, while ML taggers also find out-of-dictionary
  /// names (and false positives), yielding far more distinct names
  /// (Table 4).
  double dictionary_coverage = 0.55;
};

/// Shared, immutable-after-construction toolbox for the analysis pipeline:
/// lexicons, trained ML taggers, trained POS tagger, and (possibly lazily
/// built) dictionary taggers. One context is shared by all operators of a
/// flow, mirroring the per-job tool instances of the paper's setup.
///
/// The CRF taggers are trained on *Medline-register* gold text only — the
/// paper's central caveat ("all ML-based methods used in this project employ
/// models trained on Medline abstracts since no other training data is
/// available", Sect. 5). In that register, out-of-lexicon acronyms are
/// almost always genes, so the trained gene model aggressively tags TLAs —
/// the exact false-positive pathology the paper hits on web text.
class AnalysisContext {
 public:
  explicit AnalysisContext(AnalysisContextConfig config = {});

  const corpus::EntityLexicons& lexicons() const { return lexicons_; }
  const AnalysisContextConfig& config() const { return config_; }

  const text::SentenceSplitter& splitter() const { return splitter_; }
  const text::Tokenizer& tokenizer() const { return tokenizer_; }
  const nlp::PosTagger& pos_tagger() const { return pos_tagger_; }
  const nlp::LinguisticExtractor& linguistic() const { return linguistic_; }
  const nlp::AbbreviationDetector& abbreviations() const {
    return abbreviations_;
  }

  /// The ML tagger for `type` (BANNER-like gene, ChemSpot-like drug, the
  /// in-house disease tagger).
  const ie::CrfTagger& crf_tagger(ie::EntityType type) const;

  /// Dictionary tagger for `type`; builds it on first use, in the first
  /// operator Open() that asks (the automaton-construction start-up cost of
  /// Sect. 4.2).
  const ie::DictionaryTagger& dictionary_tagger(ie::EntityType type) const;

  /// Generates Medline-register gold sentences for `type` and trains a CRF
  /// from them. Exposed for tests.
  static std::vector<ie::TaggedSentence> MakeGoldSentences(
      const corpus::EntityLexicons& lexicons, ie::EntityType type,
      size_t num_sentences, uint64_t seed);

 private:
  void TrainCrf(ie::EntityType type);

  AnalysisContextConfig config_;
  corpus::EntityLexicons lexicons_;
  text::SentenceSplitter splitter_;
  text::Tokenizer tokenizer_;
  nlp::PosTagger pos_tagger_;
  nlp::LinguisticExtractor linguistic_;
  nlp::AbbreviationDetector abbreviations_;
  std::vector<std::unique_ptr<ie::CrfTagger>> crf_taggers_;  // by EntityType
  mutable std::vector<std::unique_ptr<ie::DictionaryTagger>> dict_taggers_;
  mutable std::mutex dict_mu_;
};

}  // namespace wsie::core

#endif  // WSIE_CORE_ANALYSIS_CONTEXT_H_
