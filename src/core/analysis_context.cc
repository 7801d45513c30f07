#include "core/analysis_context.h"

#include <memory>
#include <mutex>

#include "corpus/text_generator.h"
#include "ml/crf.h"

namespace wsie::core {
namespace {

/// Maps gold character spans onto token-index spans.
std::vector<ie::GoldSpan> SpansToTokens(
    const std::vector<text::Token>& tokens,
    const std::vector<const corpus::GoldEntity*>& gold) {
  std::vector<ie::GoldSpan> spans;
  for (const corpus::GoldEntity* g : gold) {
    size_t begin_token = tokens.size(), end_token = 0;
    for (size_t t = 0; t < tokens.size(); ++t) {
      if (tokens[t].begin >= g->begin && tokens[t].end <= g->end) {
        begin_token = std::min(begin_token, t);
        end_token = std::max(end_token, t + 1);
      }
    }
    if (begin_token < end_token) {
      spans.push_back(ie::GoldSpan{begin_token, end_token});
    }
  }
  return spans;
}

}  // namespace

AnalysisContext::AnalysisContext(AnalysisContextConfig config)
    : config_(config),
      splitter_(text::SentenceSplitterOptions{/*max_sentence_chars=*/2000,
                                              /*break_on_newline=*/true}) {
  pos_tagger_.set_max_tokens_per_sentence(config_.pos_max_tokens);
  pos_tagger_.TrainDefault(config_.seed, config_.pos_training_sentences);
  crf_taggers_.resize(3);
  dict_taggers_.resize(3);
  TrainCrf(ie::EntityType::kGene);
  TrainCrf(ie::EntityType::kDrug);
  TrainCrf(ie::EntityType::kDisease);
}

std::vector<ie::TaggedSentence> AnalysisContext::MakeGoldSentences(
    const corpus::EntityLexicons& lexicons, ie::EntityType type,
    size_t num_sentences, uint64_t seed) {
  // Medline-register gold: generate abstracts, keep sentences, and label the
  // target type. TLA noise in Medline counts as a gene mention ("this
  // strategy is correct for the gold standard abstracts used for developing
  // and evaluating the tool", Sect. 4.3.2).
  corpus::CorpusProfile profile = corpus::ProfileFor(corpus::CorpusKind::kMedline);
  corpus::TextGenerator generator(&lexicons, profile, seed);
  text::SentenceSplitter splitter;
  text::Tokenizer tokenizer;

  std::vector<ie::TaggedSentence> sentences;
  uint64_t doc_id = 0;
  while (sentences.size() < num_sentences) {
    corpus::Document doc = generator.GenerateDocument(doc_id++);
    // Pin the document text: tokens are string_views into this buffer, so
    // every TaggedSentence cut from the document shares ownership of it.
    auto buffer = std::make_shared<const std::string>(std::move(doc.text));
    for (const text::SentenceSpan& span : splitter.Split(*buffer)) {
      std::string_view sentence_text =
          std::string_view(*buffer).substr(span.begin, span.length());
      ie::TaggedSentence tagged;
      tagged.buffer = buffer;
      tagged.tokens = tokenizer.Tokenize(sentence_text, span.begin);
      if (tagged.tokens.empty()) continue;
      std::vector<const corpus::GoldEntity*> gold;
      for (const corpus::GoldEntity& g : doc.gold_entities) {
        if (g.begin >= span.begin && g.end <= span.end && g.type == type) {
          bool counts = g.from_lexicon || type == ie::EntityType::kGene;
          if (counts) gold.push_back(&g);
        }
      }
      tagged.spans = SpansToTokens(tagged.tokens, gold);
      sentences.push_back(std::move(tagged));
      if (sentences.size() >= num_sentences) break;
    }
  }
  return sentences;
}

void AnalysisContext::TrainCrf(ie::EntityType type) {
  auto tagger = std::make_unique<ie::CrfTagger>(type);
  std::vector<ie::TaggedSentence> gold =
      MakeGoldSentences(lexicons_, type, config_.crf_training_sentences,
                        config_.seed + static_cast<uint64_t>(type) * 101);
  tagger->Train(gold, config_.crf_train_options);
  crf_taggers_[static_cast<size_t>(type)] = std::move(tagger);
}

const ie::CrfTagger& AnalysisContext::crf_tagger(ie::EntityType type) const {
  return *crf_taggers_[static_cast<size_t>(type)];
}

const ie::DictionaryTagger& AnalysisContext::dictionary_tagger(
    ie::EntityType type) const {
  std::lock_guard<std::mutex> lock(dict_mu_);
  auto& slot = dict_taggers_[static_cast<size_t>(type)];
  if (slot == nullptr) {
    // Incomplete dictionary: a deterministic `dictionary_coverage` subset of
    // the lexicon (name-hash based, so the gap is spread over all frequency
    // ranks and every corpus contains out-of-dictionary mentions).
    const std::vector<std::string>& full = lexicons_.ForType(type);
    std::vector<std::string> known;
    known.reserve(full.size());
    const uint64_t cutoff =
        static_cast<uint64_t>(config_.dictionary_coverage * 10000.0);
    for (const std::string& name : full) {
      if (ml::HashFeature(name) % 10000 < cutoff) known.push_back(name);
    }
    if (known.empty()) known = full;
    slot = std::make_unique<ie::DictionaryTagger>(type, known);
  }
  return *slot;
}

}  // namespace wsie::core
