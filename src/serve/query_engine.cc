#include "serve/query_engine.h"

#include <algorithm>
#include <utility>

#include "common/epoch.h"
#include "common/hash.h"
#include "obs/scoped_timer.h"

namespace wsie::serve {
namespace {

using store::AnnotationStore;
using store::ServingIndex;

bool GroupMatches(const store::PostingGroup& group, const QueryFilter& filter) {
  if (filter.corpus != kAny && group.corpus != filter.corpus) return false;
  if (filter.type != kAny && group.type != filter.type) return false;
  if (filter.method != kAny && group.method != filter.method) return false;
  return true;
}

bool ComboMatches(const ServingIndex::ComboCount& combo,
                  const QueryFilter& filter) {
  if (filter.corpus != kAny && combo.corpus != filter.corpus) return false;
  if (filter.type != kAny && combo.type != filter.type) return false;
  if (filter.method != kAny && combo.method != filter.method) return false;
  return true;
}

bool IsUnfiltered(const QueryFilter& filter) {
  return filter.corpus == kAny && filter.type == kAny && filter.method == kAny;
}

/// A (corpus, doc, sentence) key for co-occurrence intersection.
struct SentenceKey {
  uint8_t corpus = 0;
  uint64_t doc = 0;
  uint32_t sentence = 0;

  friend auto operator<=>(const SentenceKey&, const SentenceKey&) = default;
};

/// Sorts + dedupes `v` in place, leaving the distinct-key count.
template <typename T>
size_t SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
  return v->size();
}

/// Count of elements present in both sorted-unique vectors.
template <typename T>
uint64_t IntersectCount(const std::vector<T>& a, const std::vector<T>& b) {
  uint64_t n = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++n;
      ++ia;
      ++ib;
    }
  }
  return n;
}

/// Appends every (corpus, doc) / (corpus, doc, sentence) key of `name`'s
/// filter-matching postings, then sort-uniques both.
void CollectOccurrences(const AnnotationStore::SegmentSet& set,
                        std::string_view name, const QueryFilter& filter,
                        std::vector<store::DocKey>* docs,
                        std::vector<SentenceKey>* sentences) {
  const int64_t term = set.index.FindTerm(name);
  if (term >= 0) {
    for (const ServingIndex::TermRef& ref : set.index.Refs(term)) {
      const store::Segment& segment = *set.segments[ref.segment];
      for (const store::PostingGroup& group :
           segment.GroupsForTerm(ref.term_id)) {
        if (!GroupMatches(group, filter)) continue;
        for (const store::Posting& posting : group.postings) {
          docs->push_back(store::DocKey{group.corpus, posting.doc_id});
          sentences->push_back(
              SentenceKey{group.corpus, posting.doc_id, posting.sentence});
        }
      }
    }
  }
  SortUnique(docs);
  SortUnique(sentences);
}

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<store::AnnotationStore> annotations)
    : store_(std::move(annotations)) {
  auto& registry = obs::MetricsRegistry::Global();
  queries_lookup_ = registry.GetCounter(
      obs::WithLabel("wsie.serve.queries", "kind", "lookup"));
  queries_prefix_ = registry.GetCounter(
      obs::WithLabel("wsie.serve.queries", "kind", "prefix"));
  queries_frequency_ = registry.GetCounter(
      obs::WithLabel("wsie.serve.queries", "kind", "frequency"));
  queries_topk_ = registry.GetCounter(
      obs::WithLabel("wsie.serve.queries", "kind", "topk"));
  queries_cooccurrence_ = registry.GetCounter(
      obs::WithLabel("wsie.serve.queries", "kind", "cooccurrence"));
  queries_similar_ = registry.GetCounter(
      obs::WithLabel("wsie.serve.queries", "kind", "similar"));
  latency_ns_ = registry.GetHistogram("wsie.serve.query.latency_ns");
  snapshot_segments_ = registry.GetGauge("wsie.serve.snapshot.segments");
  vec_queries_ = registry.GetCounter("wsie.vec.queries");
  vec_queries_missing_index_ =
      registry.GetCounter("wsie.vec.queries_missing_index");
  vec_queries_delta_ = registry.GetCounter("wsie.vec.queries_delta");
  vec_latency_ns_ = registry.GetHistogram("wsie.vec.query.latency_ns");
  vec_hops_ = registry.GetHistogram("wsie.vec.query.hops");
}

store::AnnotationStore::Snapshot QueryEngine::snapshot() const {
  store::AnnotationStore::Snapshot snap = store_->snapshot();
  snapshot_segments_->Set(static_cast<double>(snap.segments.size()));
  return snap;
}

QueryEngine::LookupResult QueryEngine::Lookup(std::string_view name,
                                              const QueryFilter& filter,
                                              size_t max_postings) const {
  queries_lookup_->Increment();
  obs::ScopedTimer timer(latency_ns_);
  AnnotationStore::PinnedSet pin(*store_);
  snapshot_segments_->Set(static_cast<double>(pin->segments.size()));

  LookupResult result;
  const ServingIndex& index = pin->index;
  const int64_t term = index.FindTerm(name);
  if (term < 0) return result;

  if (IsUnfiltered(filter)) {
    // Fully precomputed: no posting list is touched unless the caller
    // asked for raw postings back.
    result.found = true;
    result.count = index.total_count(term);
    result.docs = index.distinct_docs(term);
    result.per_corpus = index.per_corpus(term);
    for (const ServingIndex::TermRef& ref : index.Refs(term)) {
      if (result.postings.size() >= max_postings) break;
      const store::Segment& segment = *pin->segments[ref.segment];
      for (const store::PostingGroup& group :
           segment.GroupsForTerm(ref.term_id)) {
        for (const store::Posting& posting : group.postings) {
          if (result.postings.size() >= max_postings) break;
          result.postings.push_back(posting);
        }
      }
    }
    return result;
  }

  // Filtered: walk exactly the segments holding the term, in publication
  // order (the same order the full-scan engine visits them).
  thread_local std::vector<store::DocKey> doc_scratch;
  doc_scratch.clear();
  for (const ServingIndex::TermRef& ref : index.Refs(term)) {
    const store::Segment& segment = *pin->segments[ref.segment];
    for (const store::PostingGroup& group :
         segment.GroupsForTerm(ref.term_id)) {
      if (!GroupMatches(group, filter)) continue;
      result.found = true;
      result.count += group.postings.size();
      result.per_corpus[group.corpus] += group.postings.size();
      uint64_t prev_doc = UINT64_MAX;
      for (const store::Posting& posting : group.postings) {
        if (posting.doc_id != prev_doc) {
          doc_scratch.push_back(store::DocKey{group.corpus, posting.doc_id});
          prev_doc = posting.doc_id;
        }
        if (result.postings.size() < max_postings) {
          result.postings.push_back(posting);
        }
      }
    }
  }
  result.docs = SortUnique(&doc_scratch);
  return result;
}

std::vector<std::string> QueryEngine::PrefixScan(std::string_view prefix,
                                                 size_t limit) const {
  queries_prefix_->Increment();
  obs::ScopedTimer timer(latency_ns_);
  AnnotationStore::PinnedSet pin(*store_);
  snapshot_segments_->Set(static_cast<double>(pin->segments.size()));

  // The index's term table IS the sorted, deduplicated union of every
  // segment dictionary — the scan is a binary search plus a copy-out.
  auto [first, last] = pin->index.PrefixRange(prefix);
  std::vector<std::string> result;
  result.reserve(std::min(limit, last - first));
  for (size_t i = first; i < last && result.size() < limit; ++i) {
    result.emplace_back(pin->index.term(i));
  }
  return result;
}

QueryEngine::FrequencyResult QueryEngine::CorpusFrequency(int corpus, int type,
                                                          int method) const {
  queries_frequency_->Increment();
  obs::ScopedTimer timer(latency_ns_);
  FrequencyResult result;
  if (corpus < 0 || corpus >= static_cast<int>(store::kNumCorpora) ||
      type < 0 || type >= static_cast<int>(store::kNumTypes)) {
    return result;
  }
  AnnotationStore::PinnedSet pin(*store_);
  snapshot_segments_->Set(static_cast<double>(pin->segments.size()));
  const ServingIndex& index = pin->index;

  result.sentences = index.sentences(corpus);
  std::array<uint64_t, store::kNumMethods> per_method{};
  for (size_t m = 0; m < store::kNumMethods; ++m) {
    if (method == kAny || method == static_cast<int>(m)) {
      per_method[m] = index.annotations(corpus, type, m);
    }
  }
  result.distinct_names = index.distinct_names(
      corpus, type,
      method == kAny ? ServingIndex::kMethodUnion
                     : static_cast<size_t>(method));
  for (uint64_t annotations : per_method) result.annotations += annotations;
  // One division per method, then summed for kAny — the same float
  // evaluation order as CorpusAnalysis::EntitiesPer1000Sentences[AllMethods].
  if (result.sentences > 0) {
    for (size_t m = 0; m < store::kNumMethods; ++m) {
      result.per_1000_sentences += 1000.0 * static_cast<double>(per_method[m]) /
                                   static_cast<double>(result.sentences);
    }
  }
  return result;
}

std::vector<QueryEngine::EntityCount> QueryEngine::TopK(
    size_t k, const QueryFilter& filter) const {
  queries_topk_->Increment();
  obs::ScopedTimer timer(latency_ns_);
  AnnotationStore::PinnedSet pin(*store_);
  snapshot_segments_->Set(static_cast<double>(pin->segments.size()));
  const ServingIndex& index = pin->index;

  // One pass over the per-term combo table — never the posting lists.
  // Term ids ascend in name order, so (count desc, id asc) reproduces the
  // seed engine's (count desc, name asc) order exactly.
  struct Hit {
    uint64_t count;
    size_t term;
  };
  thread_local std::vector<Hit> hits;
  hits.clear();
  const bool unfiltered = IsUnfiltered(filter);
  for (size_t i = 0; i < index.num_terms(); ++i) {
    uint64_t count = 0;
    if (unfiltered) {
      count = index.total_count(i);
    } else {
      for (const ServingIndex::ComboCount& combo : index.Combos(i)) {
        if (ComboMatches(combo, filter)) count += combo.count;
      }
    }
    if (count > 0) hits.push_back(Hit{count, i});
  }
  const size_t top = std::min(k, hits.size());
  std::partial_sort(hits.begin(), hits.begin() + static_cast<ptrdiff_t>(top),
                    hits.end(), [](const Hit& a, const Hit& b) {
                      if (a.count != b.count) return a.count > b.count;
                      return a.term < b.term;
                    });
  std::vector<EntityCount> result;
  result.reserve(top);
  for (size_t i = 0; i < top; ++i) {
    result.push_back(
        EntityCount{std::string(index.term(hits[i].term)), hits[i].count});
  }
  return result;
}

QueryEngine::CoOccurrenceResult QueryEngine::CoOccurrence(
    std::string_view a, std::string_view b, const QueryFilter& filter) const {
  queries_cooccurrence_->Increment();
  obs::ScopedTimer timer(latency_ns_);
  AnnotationStore::PinnedSet pin(*store_);
  snapshot_segments_->Set(static_cast<double>(pin->segments.size()));

  thread_local std::vector<store::DocKey> docs_a, docs_b;
  thread_local std::vector<SentenceKey> sentences_a, sentences_b;
  docs_a.clear();
  docs_b.clear();
  sentences_a.clear();
  sentences_b.clear();
  CollectOccurrences(*pin, a, filter, &docs_a, &sentences_a);
  CollectOccurrences(*pin, b, filter, &docs_b, &sentences_b);

  CoOccurrenceResult result;
  result.docs = IntersectCount(docs_a, docs_b);
  result.sentences = IntersectCount(sentences_a, sentences_b);
  return result;
}

QueryEngine::SimilarResult QueryEngine::Similar(std::string_view text,
                                                size_t k, size_t beam) const {
  queries_similar_->Increment();
  vec_queries_->Increment();
  obs::ScopedTimer timer(latency_ns_);
  obs::ScopedTimer vec_timer(vec_latency_ns_);
  AnnotationStore::PinnedSet pin(*store_);
  snapshot_segments_->Set(static_cast<double>(pin->segments.size()));

  SimilarResult result;
  if (pin->vectors == nullptr) {
    vec_queries_missing_index_->Increment();
    return result;
  }
  result.index_available = true;
  const vec::VecIndex& index = *pin->vectors;
  const vec::DeltaIndex* delta = pin->delta.get();
  if (k == 0) k = 10;

  vec::VecIndex::SearchStats stats;
  if (delta == nullptr) {
    // Fast path: the graph covers every live term.
    std::vector<vec::VecIndex::Neighbor> hits;
    const int64_t self = index.FindName(text);
    if (self >= 0) {
      // Entity query: search by the stored embedding and drop the entity
      // from its own neighbor list (over-fetch by one to keep k results).
      result.found = true;
      hits = index.Search(index.vector(static_cast<size_t>(self)), k + 1,
                          beam, &stats);
      std::erase_if(hits, [self](const vec::VecIndex::Neighbor& neighbor) {
        return neighbor.id == static_cast<uint32_t>(self);
      });
      if (hits.size() > k) hits.resize(k);
    } else {
      hits = index.SearchText(text, k, beam, &stats);
    }
    result.neighbors.reserve(hits.size());
    for (const vec::VecIndex::Neighbor& hit : hits) {
      result.neighbors.push_back(
          SimilarResult::Hit{index.name(hit.id), hit.distance});
    }
    result.hops = stats.hops;
    vec_hops_->Observe(static_cast<double>(stats.hops));
    return result;
  }

  // Delta path: terms appended since the last full build live in a small
  // exact side index. Search both and merge by exact (distance, name) —
  // within each index that equals its (distance, id) order (ids are
  // sorted-name positions), and names never repeat across the two (the
  // delta holds exactly the terms the graph lacks), so the merged ranking
  // is a deterministic total order.
  vec_queries_delta_->Increment();
  const int64_t self_main = index.FindName(text);
  const int64_t self_delta = self_main >= 0 ? -1 : delta->FindName(text);
  std::vector<float> query_storage;
  const float* query = nullptr;
  if (self_main >= 0) {
    result.found = true;
    query = index.vector(static_cast<size_t>(self_main));
  } else if (self_delta >= 0) {
    result.found = true;
    query = delta->vector(static_cast<size_t>(self_delta));
  } else {
    query_storage.resize(index.dim());
    index.embedder().Embed(text, query_storage.data());
    query = query_storage.data();
  }

  // Over-fetch by one from each side: at most one of them contains the
  // query entity itself.
  std::vector<vec::VecIndex::Neighbor> main_hits =
      index.Search(query, k + 1, beam, &stats);
  if (self_main >= 0) {
    std::erase_if(main_hits, [self_main](const vec::VecIndex::Neighbor& n) {
      return n.id == static_cast<uint32_t>(self_main);
    });
  }
  std::vector<vec::VecIndex::Neighbor> delta_hits =
      delta->SearchExact(query, k + 1);
  if (self_delta >= 0) {
    std::erase_if(delta_hits, [self_delta](const vec::VecIndex::Neighbor& n) {
      return n.id == static_cast<uint32_t>(self_delta);
    });
  }

  std::vector<SimilarResult::Hit> merged;
  merged.reserve(main_hits.size() + delta_hits.size());
  for (const vec::VecIndex::Neighbor& hit : main_hits) {
    merged.push_back(SimilarResult::Hit{index.name(hit.id), hit.distance});
  }
  for (const vec::VecIndex::Neighbor& hit : delta_hits) {
    merged.push_back(SimilarResult::Hit{delta->name(hit.id), hit.distance});
  }
  std::sort(merged.begin(), merged.end(),
            [](const SimilarResult::Hit& a, const SimilarResult::Hit& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.name < b.name;
            });
  if (merged.size() > k) merged.resize(k);
  result.neighbors = std::move(merged);
  result.hops = stats.hops;
  vec_hops_->Observe(static_cast<double>(stats.hops));
  return result;
}

QueryEngine::Response QueryEngine::Execute(const Request& request) const {
  Response response;
  response.kind = request.kind;
  switch (request.kind) {
    case Request::Kind::kLookup:
      response.lookup = Lookup(request.name, request.filter, request.limit);
      break;
    case Request::Kind::kPrefix:
      response.names =
          PrefixScan(request.name, request.limit == 0 ? 100 : request.limit);
      break;
    case Request::Kind::kFrequency:
      response.frequency =
          CorpusFrequency(request.corpus, request.type, request.method);
      break;
    case Request::Kind::kTopK:
      response.topk = TopK(request.limit == 0 ? 10 : request.limit,
                           request.filter);
      break;
    case Request::Kind::kCoOccurrence:
      response.cooccurrence =
          CoOccurrence(request.name, request.name_b, request.filter);
      break;
    case Request::Kind::kSimilar:
      response.similar =
          Similar(request.name, request.limit == 0 ? 10 : request.limit);
      break;
  }
  return response;
}

void QueryEngine::ExecuteBatch(const Request* requests, Response* responses,
                               size_t n) const {
  // Guards nest: this outer pin makes every per-query pin a no-op and
  // holds one epoch for the whole batch.
  EpochManager::Guard guard;
  for (size_t i = 0; i < n; ++i) {
    responses[i] = Execute(requests[i]);
  }
}

uint64_t QueryEngine::Digest(const Request& request) {
  uint64_t h = kFnv1aShortBasis;
  auto mix_u64 = [&h](uint64_t v) { h = Fnv1aU64(v, h); };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    h = Fnv1a(s, h);
  };
  h = Fnv1aByte(h, static_cast<uint8_t>(request.kind));
  mix_str(request.name);
  mix_str(request.name_b);
  mix_u64(static_cast<uint64_t>(request.filter.corpus));
  mix_u64(static_cast<uint64_t>(request.filter.type));
  mix_u64(static_cast<uint64_t>(request.filter.method));
  mix_u64(request.limit);
  mix_u64(static_cast<uint64_t>(request.corpus));
  mix_u64(static_cast<uint64_t>(request.type));
  mix_u64(static_cast<uint64_t>(request.method));
  return h;
}

}  // namespace wsie::serve
