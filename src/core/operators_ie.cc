#include "core/operators_ie.h"

#include <atomic>
#include <mutex>
#include <utility>

#include "common/string_util.h"
#include "core/record_sentences.h"
#include "html/boilerplate.h"
#include "html/html_repair.h"
#include "obs/metrics.h"

namespace wsie::core {
namespace {

using ::wsie::dataflow::Dataset;
using ::wsie::dataflow::OperatorPackage;
using ::wsie::dataflow::OperatorPtr;
using ::wsie::dataflow::OperatorTraits;
using ::wsie::dataflow::Record;
using ::wsie::dataflow::RecordOperator;
using ::wsie::dataflow::Value;

Value AnnotationValue(const ie::Annotation& a) {
  Value v;
  v.SetField("b", static_cast<int64_t>(a.begin));
  v.SetField("e", static_cast<int64_t>(a.end));
  if (a.method == ie::AnnotationMethod::kRegex) {
    v.SetField("cat", a.category);
  } else {
    v.SetField("type", std::string(ie::EntityTypeName(a.entity_type)));
    v.SetField("method", std::string(ie::AnnotationMethodName(a.method)));
    v.SetField("surface", a.surface);
  }
  return v;
}

/// Iterates the record's sentences with zero-copy view tokens (see
/// core/record_sentences.h). Kept as a thin alias so the operator bodies
/// read the same as before the allocation-free rewrite.
template <typename Fn>
void ForEachSentence(const AnalysisContext& context, const Record& doc,
                     Fn&& fn) {
  ForEachSentenceTokens(doc, std::forward<Fn>(fn));
  (void)context;
}

// ---------------------------------------------------------------------------
// All analysis operators are record-at-a-time (Split-Correctness: their
// output per record depends only on that record), so they derive from
// RecordOperator — fused pipeline stages move records through them without
// deep copies.

class FilterLongDocumentsOp : public RecordOperator {
 public:
  explicit FilterLongDocumentsOp(size_t max_chars) : max_chars_(max_chars) {}
  std::string name() const override { return "filter_long_documents"; }
  OperatorPackage package() const override { return OperatorPackage::kWa; }
  OperatorTraits traits() const override {
    OperatorTraits t;
    t.reads = {kFieldText};
    t.selectivity = 0.98;
    t.cost_per_record = 0.1;
    return t;
  }

 protected:
  Status TransformRecord(Record record, Dataset* out) const override {
    if (record.Field(kFieldText).AsString().size() <= max_chars_) {
      out->push_back(std::move(record));
    }
    return Status::OK();
  }

 private:
  size_t max_chars_;
};

class RepairMarkupOp : public RecordOperator {
 public:
  std::string name() const override { return "repair_markup"; }
  OperatorPackage package() const override { return OperatorPackage::kWa; }
  OperatorTraits traits() const override {
    OperatorTraits t;
    t.reads = {kFieldText};
    t.writes = {kFieldText};
    t.selectivity = 0.9;  // beyond-repair documents are dropped
    t.cost_per_record = 2.0;
    return t;
  }

 protected:
  Status TransformRecord(Record record, Dataset* out) const override {
    auto repaired = repair_.Repair(record.Field(kFieldText).AsString());
    if (!repaired.ok()) return Status::OK();  // non-transcodable page
    record.SetField(kFieldText, std::move(repaired->html));
    out->push_back(std::move(record));
    return Status::OK();
  }

 private:
  html::HtmlRepair repair_;
};

class RemoveBoilerplateOp : public RecordOperator {
 public:
  std::string name() const override { return "remove_boilerplate"; }
  OperatorPackage package() const override { return OperatorPackage::kWa; }
  OperatorTraits traits() const override {
    OperatorTraits t;
    t.reads = {kFieldText};
    t.writes = {kFieldText};
    t.cost_per_record = 2.0;
    return t;
  }

 protected:
  Status TransformRecord(Record record, Dataset* out) const override {
    record.SetField(kFieldText,
                    detector_.NetText(record.Field(kFieldText).AsString()));
    out->push_back(std::move(record));
    return Status::OK();
  }

 private:
  html::BoilerplateDetector detector_;
};

class AnnotateSentencesOp : public RecordOperator {
 public:
  explicit AnnotateSentencesOp(ContextPtr context)
      : context_(std::move(context)),
        documents_(obs::MetricsRegistry::Global().GetCounter(
            obs::WithLabel("wsie.nlp.documents", "op", "annotate_sentences"))),
        sentences_(obs::MetricsRegistry::Global().GetCounter(
            obs::WithLabel("wsie.nlp.sentences", "op", "annotate_sentences"))),
        tokens_(obs::MetricsRegistry::Global().GetCounter(
            obs::WithLabel("wsie.nlp.tokens", "op", "annotate_sentences"))) {}
  std::string name() const override { return "annotate_sentences"; }
  OperatorPackage package() const override { return OperatorPackage::kIe; }
  OperatorTraits traits() const override {
    OperatorTraits t;
    t.reads = {kFieldText};
    t.writes = {kFieldSentences};
    t.cost_per_record = 1.0;
    return t;
  }

 protected:
  Status TransformRecord(Record record, Dataset* out) const override {
    const std::string& text = record.Field(kFieldText).AsString();
    Value::Array sentences;
    // Tokenization happens exactly once per sentence here; every downstream
    // operator re-materializes view tokens from the stored offsets instead
    // of re-tokenizing (tentpole dedup). The scratch vector is reused across
    // sentences and records.
    thread_local std::vector<text::Token> token_scratch;
    size_t token_count = 0;
    for (const text::SentenceSpan& span : context_->splitter().Split(text)) {
      Value sv;
      sv.SetField("b", static_cast<int64_t>(span.begin));
      sv.SetField("e", static_cast<int64_t>(span.end));
      context_->tokenizer().TokenizeInto(
          std::string_view(text).substr(span.begin, span.length()), span.begin,
          &token_scratch);
      Value::Array token_array;
      token_array.reserve(token_scratch.size());
      for (const text::Token& tok : token_scratch) {
        Value tv;
        tv.SetField("b", static_cast<int64_t>(tok.begin));
        tv.SetField("e", static_cast<int64_t>(tok.end));
        token_array.push_back(std::move(tv));
      }
      token_count += token_scratch.size();
      sv.SetField("tokens", Value(std::move(token_array)));
      sentences.push_back(std::move(sv));
    }
    documents_->Increment();
    sentences_->Add(sentences.size());
    tokens_->Add(token_count);
    record.SetField(kFieldSentences, Value(std::move(sentences)));
    out->push_back(std::move(record));
    return Status::OK();
  }

 private:
  ContextPtr context_;
  obs::Counter* documents_;
  obs::Counter* sentences_;
  obs::Counter* tokens_;
};

class AnnotatePosOp : public RecordOperator {
 public:
  explicit AnnotatePosOp(ContextPtr context)
      : context_(std::move(context)),
        overflow_sentences_(obs::MetricsRegistry::Global().GetCounter(
            obs::WithLabel("wsie.quality.pos_overflow_sentences", "op",
                           "annotate_pos"))) {}
  std::string name() const override { return "annotate_pos"; }
  OperatorPackage package() const override { return OperatorPackage::kIe; }
  OperatorTraits traits() const override {
    OperatorTraits t;
    t.reads = {kFieldText, kFieldSentences};
    t.writes = {"pos"};
    t.cost_per_record = 12.0;  // POS tagging took 12% of total runtime
    return t;
  }
  size_t MemoryBytesPerWorker() const override { return 64u << 20; }

 protected:
  Status TransformRecord(Record record, Dataset* out) const override {
    size_t overflowed = 0;
    Value::Array sentences = record.Field(kFieldSentences).AsArray();
    ForEachSentence(*context_, record,
                    [&](uint32_t sid, size_t, size_t,
                        const std::vector<text::Token>& tokens) {
                      bool overflow = false;
                      std::vector<nlp::PosTag> tags =
                          context_->pos_tagger().TagTokens(tokens, &overflow);
                      if (overflow) {
                        ++overflowed;
                        return;
                      }
                      Value::Array tag_array;
                      tag_array.reserve(tags.size());
                      for (nlp::PosTag tag : tags) {
                        tag_array.push_back(Value(static_cast<int64_t>(tag)));
                      }
                      if (sid < sentences.size()) {
                        sentences[sid].SetField("tags",
                                                Value(std::move(tag_array)));
                      }
                    });
    record.SetField(kFieldSentences, Value(std::move(sentences)));
    if (overflowed > 0) {
      // The record stays in the flow untagged; count the pitfall so a run
      // shows how much text the cap dropped from POS (Sect. 5).
      overflow_sentences_->Add(overflowed);
      record.SetField(kFieldPosOverflow, Value(true));
    }
    out->push_back(std::move(record));
    return Status::OK();
  }

 private:
  ContextPtr context_;
  obs::Counter* overflow_sentences_;
};

/// Common base for the three regex linguistic extractors.
class LinguisticOpBase : public RecordOperator {
 public:
  explicit LinguisticOpBase(ContextPtr context) : context_(std::move(context)) {}
  OperatorPackage package() const override { return OperatorPackage::kIe; }
  OperatorTraits traits() const override {
    OperatorTraits t;
    t.reads = {kFieldText, kFieldSentences};
    t.writes = {kFieldLing};
    t.cost_per_record = 1.0;
    return t;
  }

 protected:
  Status TransformRecord(Record record, Dataset* out) const override {
    Value::Array ling = record.Field(kFieldLing).AsArray();
    const size_t ling_before = ling.size();
    uint64_t doc_id = static_cast<uint64_t>(record.Field(kFieldId).AsInt());
    const std::string& text = record.Field(kFieldText).AsString();
    ForEachSentence(*context_, record,
                    [&](uint32_t sid, size_t begin, size_t end,
                        const std::vector<text::Token>& tokens) {
                      std::string_view sentence =
                          std::string_view(text).substr(begin, end - begin);
                      for (const ie::Annotation& a :
                           Extract(doc_id, sid, sentence, begin, tokens)) {
                        ling.push_back(AnnotationValue(a));
                      }
                    });
    AnnotationsCounter()->Add(ling.size() - ling_before);
    record.SetField(kFieldLing, Value(std::move(ling)));
    out->push_back(std::move(record));
    return Status::OK();
  }

  /// `tokens` is the shared sentence tokenization (view slices of the
  /// record text); token-driven extractors consume it directly instead of
  /// re-tokenizing, character-driven ones ignore it.
  virtual std::vector<ie::Annotation> Extract(
      uint64_t doc_id, uint32_t sid, std::string_view sentence, size_t base,
      const std::vector<text::Token>& tokens) const = 0;

  /// Lazily resolved (name() is virtual, so the label is not known in the
  /// base constructor); thread-safe via call_once.
  obs::Counter* AnnotationsCounter() const {
    std::call_once(annotations_once_, [this] {
      annotations_ = obs::MetricsRegistry::Global().GetCounter(
          obs::WithLabel("wsie.ie.annotations", "op", name()));
    });
    return annotations_;
  }

  ContextPtr context_;
  mutable std::once_flag annotations_once_;
  mutable obs::Counter* annotations_ = nullptr;
};

class FindNegationOp : public LinguisticOpBase {
 public:
  using LinguisticOpBase::LinguisticOpBase;
  std::string name() const override { return "find_negation"; }

 protected:
  std::vector<ie::Annotation> Extract(
      uint64_t doc_id, uint32_t sid, std::string_view /*sentence*/,
      size_t /*base*/, const std::vector<text::Token>& tokens) const override {
    return context_->linguistic().FindNegations(doc_id, sid, tokens);
  }
};

class FindPronounsOp : public LinguisticOpBase {
 public:
  using LinguisticOpBase::LinguisticOpBase;
  std::string name() const override { return "find_pronouns"; }

 protected:
  std::vector<ie::Annotation> Extract(
      uint64_t doc_id, uint32_t sid, std::string_view /*sentence*/,
      size_t /*base*/, const std::vector<text::Token>& tokens) const override {
    return context_->linguistic().FindPronouns(doc_id, sid, tokens);
  }
};

class FindParenthesesOp : public LinguisticOpBase {
 public:
  using LinguisticOpBase::LinguisticOpBase;
  std::string name() const override { return "find_parentheses"; }

 protected:
  std::vector<ie::Annotation> Extract(
      uint64_t doc_id, uint32_t sid, std::string_view sentence, size_t base,
      const std::vector<text::Token>& /*tokens*/) const override {
    return context_->linguistic().FindParentheses(doc_id, sid, sentence, base);
  }
};

class FindAbbreviationsOp : public LinguisticOpBase {
 public:
  using LinguisticOpBase::LinguisticOpBase;
  std::string name() const override { return "find_abbreviations"; }

 protected:
  std::vector<ie::Annotation> Extract(
      uint64_t doc_id, uint32_t sid, std::string_view sentence, size_t base,
      const std::vector<text::Token>& /*tokens*/) const override {
    return context_->abbreviations().FindAsAnnotations(doc_id, sid, sentence,
                                                       base);
  }
};

class AnnotateEntitiesDictOp : public RecordOperator {
 public:
  AnnotateEntitiesDictOp(ContextPtr context, ie::EntityType type,
                         size_t modeled_memory)
      : context_(std::move(context)), type_(type),
        modeled_memory_(modeled_memory),
        entities_(obs::MetricsRegistry::Global().GetCounter(
            obs::WithLabel("wsie.ie.entities", "op", name()))) {}
  std::string name() const override {
    return std::string("annotate_") + ie::EntityTypeName(type_) + "_dict";
  }
  OperatorPackage package() const override { return OperatorPackage::kIe; }
  OperatorTraits traits() const override {
    OperatorTraits t;
    t.reads = {kFieldText};
    t.writes = {kFieldEntities};
    t.cost_per_record = 3.0;  // linear matching
    return t;
  }
  size_t MemoryBytesPerWorker() const override {
    if (modeled_memory_ > 0) return modeled_memory_;
    return context_->dictionary_tagger(type_).build_stats().memory_bytes;
  }
  Status Open() override {
    // Automaton construction: the hard start-up floor of Sect. 4.2.
    context_->dictionary_tagger(type_);
    return Status::OK();
  }

 protected:
  Status TransformRecord(Record record, Dataset* out) const override {
    const ie::DictionaryTagger& tagger = context_->dictionary_tagger(type_);
    Value::Array entities = record.Field(kFieldEntities).AsArray();
    const std::string& text = record.Field(kFieldText).AsString();
    const size_t entities_before = entities.size();
    // Offset-only hot path: the automaton emits spans over the record text;
    // the surface string is sliced once here, when the record field is
    // built, instead of materializing intermediate Annotation objects.
    thread_local std::vector<ie::AutomatonMatch> spans;
    tagger.TagSpans(text, &spans);
    for (const ie::AutomatonMatch& m : spans) {
      Value v;
      v.SetField("b", static_cast<int64_t>(m.begin));
      v.SetField("e", static_cast<int64_t>(m.end));
      v.SetField("type", std::string(ie::EntityTypeName(type_)));
      v.SetField("method", std::string(ie::AnnotationMethodName(
                               ie::AnnotationMethod::kDictionary)));
      v.SetField("surface", std::string(text, m.begin, m.end - m.begin));
      entities.push_back(std::move(v));
    }
    entities_->Add(entities.size() - entities_before);
    record.SetField(kFieldEntities, Value(std::move(entities)));
    out->push_back(std::move(record));
    return Status::OK();
  }

 private:
  ContextPtr context_;
  ie::EntityType type_;
  size_t modeled_memory_;
  obs::Counter* entities_;
};

class AnnotateEntitiesMlOp : public RecordOperator {
 public:
  AnnotateEntitiesMlOp(ContextPtr context, ie::EntityType type,
                       size_t modeled_memory)
      : context_(std::move(context)), type_(type),
        modeled_memory_(modeled_memory),
        entities_(obs::MetricsRegistry::Global().GetCounter(
            obs::WithLabel("wsie.ie.entities", "op", name()))) {}
  std::string name() const override {
    return std::string("annotate_") + ie::EntityTypeName(type_) + "_ml";
  }
  OperatorPackage package() const override { return OperatorPackage::kIe; }
  OperatorTraits traits() const override {
    OperatorTraits t;
    t.reads = {kFieldText, kFieldSentences};
    t.writes = {kFieldEntities};
    t.cost_per_record = 100.0;  // CRF decoding dominates (70% of runtime)
    return t;
  }
  size_t MemoryBytesPerWorker() const override {
    if (modeled_memory_ > 0) return modeled_memory_;
    return context_->crf_tagger(type_).model().ApproxMemoryBytes();
  }

 protected:
  Status TransformRecord(Record record, Dataset* out) const override {
    const ie::CrfTagger& tagger = context_->crf_tagger(type_);
    Value::Array entities = record.Field(kFieldEntities).AsArray();
    uint64_t doc_id = static_cast<uint64_t>(record.Field(kFieldId).AsInt());
    const std::string& text = record.Field(kFieldText).AsString();
    const size_t entities_before = entities.size();
    ForEachSentence(*context_, record,
                    [&](uint32_t sid, size_t, size_t,
                        const std::vector<text::Token>& tokens) {
                      for (const ie::Annotation& a :
                           tagger.TagSentence(doc_id, sid, text, tokens)) {
                        entities.push_back(AnnotationValue(a));
                      }
                    });
    entities_->Add(entities.size() - entities_before);
    record.SetField(kFieldEntities, Value(std::move(entities)));
    out->push_back(std::move(record));
    return Status::OK();
  }

 private:
  ContextPtr context_;
  ie::EntityType type_;
  size_t modeled_memory_;
  obs::Counter* entities_;
};

class FilterTlaOp : public RecordOperator {
 public:
  std::string name() const override { return "filter_tla"; }
  OperatorPackage package() const override { return OperatorPackage::kDc; }
  OperatorTraits traits() const override {
    OperatorTraits t;
    t.reads = {kFieldEntities};
    t.writes = {kFieldEntities};
    t.cost_per_record = 0.5;
    return t;
  }

 protected:
  Status TransformRecord(Record record, Dataset* out) const override {
    Value::Array kept;
    for (const Value& ev : record.Field(kFieldEntities).AsArray()) {
      const std::string& surface = ev.Field("surface").AsString();
      bool is_ml_gene = ev.Field("method").AsString() == "ml" &&
                        ev.Field("type").AsString() == "gene";
      bool is_tla = surface.size() == 3 && IsAllUpper(surface);
      if (is_ml_gene && is_tla) continue;
      kept.push_back(ev);
    }
    record.SetField(kFieldEntities, Value(std::move(kept)));
    out->push_back(std::move(record));
    return Status::OK();
  }
};

}  // namespace

OperatorPtr MakeFilterLongDocuments(size_t max_chars) {
  return std::make_shared<FilterLongDocumentsOp>(max_chars);
}
OperatorPtr MakeRepairMarkup() { return std::make_shared<RepairMarkupOp>(); }
OperatorPtr MakeRemoveBoilerplate() {
  return std::make_shared<RemoveBoilerplateOp>();
}
OperatorPtr MakeAnnotateSentences(ContextPtr context) {
  return std::make_shared<AnnotateSentencesOp>(std::move(context));
}
OperatorPtr MakeAnnotatePos(ContextPtr context) {
  return std::make_shared<AnnotatePosOp>(std::move(context));
}
OperatorPtr MakeFindNegation(ContextPtr context) {
  return std::make_shared<FindNegationOp>(std::move(context));
}
OperatorPtr MakeFindPronouns(ContextPtr context) {
  return std::make_shared<FindPronounsOp>(std::move(context));
}
OperatorPtr MakeFindParentheses(ContextPtr context) {
  return std::make_shared<FindParenthesesOp>(std::move(context));
}
OperatorPtr MakeFindAbbreviations(ContextPtr context) {
  return std::make_shared<FindAbbreviationsOp>(std::move(context));
}
OperatorPtr MakeAnnotateEntitiesDict(ContextPtr context, ie::EntityType type,
                                     size_t modeled_memory_bytes) {
  return std::make_shared<AnnotateEntitiesDictOp>(std::move(context), type,
                                                  modeled_memory_bytes);
}
OperatorPtr MakeAnnotateEntitiesMl(ContextPtr context, ie::EntityType type,
                                   size_t modeled_memory_bytes) {
  return std::make_shared<AnnotateEntitiesMlOp>(std::move(context), type,
                                                modeled_memory_bytes);
}
OperatorPtr MakeFilterTla() { return std::make_shared<FilterTlaOp>(); }

size_t PaperScaleDictMemoryBytes(ie::EntityType type) {
  // Sect. 4.2: dictionary taggers need 6-20 GB per worker; the gene
  // dictionary (700k+ entries) is the largest.
  switch (type) {
    case ie::EntityType::kGene:
      return 20ull << 30;
    case ie::EntityType::kDisease:
      return 8ull << 30;
    case ie::EntityType::kDrug:
      return 6ull << 30;
  }
  return 6ull << 30;
}

size_t PaperScaleMlMemoryBytes(ie::EntityType type) {
  switch (type) {
    case ie::EntityType::kGene:
      return 10ull << 30;  // BANNER
    case ie::EntityType::kDisease:
      return 8ull << 30;
    case ie::EntityType::kDrug:
      return 8ull << 30;  // ChemSpot
  }
  return 8ull << 30;
}

std::string OperatorLibraryDependency(const std::string& op_name) {
  // The disease ML tagger imports its linguistic preprocessing from
  // OpenNLP 1.4; everything else integrated OpenNLP 1.5 (Sect. 4.2).
  if (op_name == "annotate_disease_ml") return "opennlp:1.4";
  if (op_name == "annotate_sentences" || op_name == "annotate_pos") {
    return "opennlp:1.5";
  }
  return "";
}

}  // namespace wsie::core
