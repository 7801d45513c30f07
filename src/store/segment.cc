#include "store/segment.h"

#include <algorithm>
#include <tuple>

#include "common/varint.h"
#include "fault/checkpoint.h"
#include "fault/wire_format.h"

namespace wsie::store {
namespace {

// v1: scalar delta/varint posting lists. v2: group-varint posting lists.
// Encode always writes v2; decode accepts both so pre-switch stores open.
constexpr uint64_t kSegmentVersionScalar = 1;
constexpr uint64_t kSegmentVersion = 2;

using wsie::fault::Checkpoint;
namespace wire = wsie::fault::wire;

}  // namespace

int EntityTypeIndexFromName(std::string_view name) {
  if (name == "gene") return 0;
  if (name == "drug") return 1;
  if (name == "disease") return 2;
  return -1;
}

int MethodIndexFromName(std::string_view name) {
  if (name == "dict") return 0;
  if (name == "ml") return 1;
  return -1;
}

int Segment::FindTerm(std::string_view term) const {
  auto it = std::lower_bound(terms_.begin(), terms_.end(), term);
  if (it == terms_.end() || *it != term) return -1;
  return static_cast<int>(it - terms_.begin());
}

std::span<const PostingGroup> Segment::GroupsForTerm(uint32_t term_id) const {
  auto lo = std::lower_bound(
      groups_.begin(), groups_.end(), term_id,
      [](const PostingGroup& g, uint32_t id) { return g.term_id < id; });
  auto hi = lo;
  while (hi != groups_.end() && hi->term_id == term_id) ++hi;
  if (lo == hi) return {};
  return {&*lo, static_cast<size_t>(hi - lo)};
}

std::pair<size_t, size_t> Segment::PrefixRange(std::string_view prefix) const {
  auto lo = std::lower_bound(terms_.begin(), terms_.end(), prefix);
  auto hi = lo;
  while (hi != terms_.end() && hi->compare(0, prefix.size(), prefix) == 0) {
    ++hi;
  }
  return {static_cast<size_t>(lo - terms_.begin()),
          static_cast<size_t>(hi - terms_.begin())};
}

std::span<const DocKey> Segment::DocKeysForTerm(uint32_t term_id) const {
  if (term_id + 1 >= doc_key_offsets_.size()) return {};
  const uint64_t first = doc_key_offsets_[term_id];
  const uint64_t last = doc_key_offsets_[term_id + 1];
  return {doc_keys_.data() + first, static_cast<size_t>(last - first)};
}

void Segment::BuildDocKeyCache() {
  doc_keys_.clear();
  doc_key_offsets_.assign(terms_.size() + 1, 0);
  // Groups are contiguous per term, and each group's postings are sorted
  // by doc id — so per term we merge a handful of sorted runs. Collect,
  // sort, dedupe; runs are short and this only happens at build/decode.
  size_t g = 0;
  for (uint32_t t = 0; t < terms_.size(); ++t) {
    const size_t run_start = doc_keys_.size();
    for (; g < groups_.size() && groups_[g].term_id == t; ++g) {
      const PostingGroup& group = groups_[g];
      uint64_t prev = UINT64_MAX;
      for (const Posting& p : group.postings) {
        if (p.doc_id != prev) {
          doc_keys_.push_back(DocKey{group.corpus, p.doc_id});
          prev = p.doc_id;
        }
      }
    }
    auto begin = doc_keys_.begin() + static_cast<ptrdiff_t>(run_start);
    std::sort(begin, doc_keys_.end());
    doc_keys_.erase(std::unique(begin, doc_keys_.end()), doc_keys_.end());
    doc_key_offsets_[t + 1] = doc_keys_.size();
  }
}

Checkpoint Segment::ToContainer() const {
  Checkpoint container;

  std::string meta;
  wire::PutU64(&meta, kSegmentVersion);
  wire::PutU64(&meta, id_);
  for (const CorpusStats& stats : corpus_stats_) {
    wire::PutU64(&meta, stats.docs);
    wire::PutU64(&meta, stats.sentences);
    wire::PutU64(&meta, stats.chars);
  }
  wire::PutU64(&meta, terms_.size());
  wire::PutU64(&meta, groups_.size());
  wire::PutU64(&meta, num_postings_);
  container.SetSection("meta", std::move(meta));

  std::string dict;
  for (const std::string& term : terms_) wire::PutString(&dict, term);
  container.SetSection("dict", std::move(dict));

  std::string postings;
  for (const PostingGroup& group : groups_) {
    PutVarint(&postings, group.term_id);
    PutVarint(&postings, group.corpus);
    PutVarint(&postings, group.type);
    PutVarint(&postings, group.method);
    // Groups are built sorted, so the checked encoder cannot fail here.
    EncodePostingListGrouped(group.postings, &postings);
  }
  container.SetSection("postings", std::move(postings));

  return container;
}

std::string Segment::Encode() const { return ToContainer().Serialize(); }

Result<Segment> Segment::Decode(std::string_view bytes) {
  WSIE_ASSIGN_OR_RETURN(Checkpoint container, Checkpoint::Deserialize(bytes));
  return FromContainer(container, bytes.size());
}

Result<Segment> Segment::FromContainer(const Checkpoint& container,
                                       size_t encoded_bytes) {
  const std::string* meta = container.FindSection("meta");
  const std::string* dict = container.FindSection("dict");
  const std::string* postings = container.FindSection("postings");
  if (meta == nullptr || dict == nullptr || postings == nullptr) {
    return Status::InvalidArgument("segment: missing section");
  }

  Segment segment;
  segment.encoded_bytes_ = encoded_bytes;

  std::string_view in = *meta;
  uint64_t version = 0;
  if (!wire::GetU64(&in, &version) ||
      (version != kSegmentVersionScalar && version != kSegmentVersion)) {
    return Status::InvalidArgument("segment: bad version");
  }
  uint64_t num_terms = 0, num_groups = 0;
  if (!wire::GetU64(&in, &segment.id_)) {
    return Status::InvalidArgument("segment: malformed meta");
  }
  for (CorpusStats& stats : segment.corpus_stats_) {
    if (!wire::GetU64(&in, &stats.docs) ||
        !wire::GetU64(&in, &stats.sentences) ||
        !wire::GetU64(&in, &stats.chars)) {
      return Status::InvalidArgument("segment: malformed corpus stats");
    }
  }
  if (!wire::GetU64(&in, &num_terms) || !wire::GetU64(&in, &num_groups) ||
      !wire::GetU64(&in, &segment.num_postings_)) {
    return Status::InvalidArgument("segment: malformed meta counts");
  }
  if (num_terms > dict->size() || num_groups > postings->size()) {
    return Status::InvalidArgument("segment: counts exceed section sizes");
  }

  segment.terms_.reserve(num_terms);
  std::string_view din = *dict;
  for (uint64_t i = 0; i < num_terms; ++i) {
    std::string term;
    if (!wire::GetString(&din, &term)) {
      return Status::InvalidArgument("segment: malformed dictionary");
    }
    if (i > 0 && term <= segment.terms_.back()) {
      return Status::InvalidArgument("segment: dictionary not sorted/unique");
    }
    segment.terms_.push_back(std::move(term));
  }
  if (!din.empty()) {
    return Status::InvalidArgument("segment: trailing dictionary bytes");
  }

  segment.groups_.reserve(num_groups);
  std::string_view pin = *postings;
  uint64_t total_postings = 0;
  for (uint64_t i = 0; i < num_groups; ++i) {
    uint64_t term_id = 0, corpus = 0, type = 0, method = 0;
    if (!GetVarint(&pin, &term_id) || !GetVarint(&pin, &corpus) ||
        !GetVarint(&pin, &type) || !GetVarint(&pin, &method)) {
      return Status::InvalidArgument("segment: malformed group header");
    }
    if (term_id >= num_terms || corpus >= kNumCorpora || type >= kNumTypes ||
        method >= kNumMethods) {
      return Status::InvalidArgument("segment: group key out of range");
    }
    PostingGroup group;
    group.term_id = static_cast<uint32_t>(term_id);
    group.corpus = static_cast<uint8_t>(corpus);
    group.type = static_cast<uint8_t>(type);
    group.method = static_cast<uint8_t>(method);
    WSIE_RETURN_NOT_OK(version == kSegmentVersionScalar
                           ? DecodePostingList(&pin, &group.postings)
                           : DecodePostingListGrouped(&pin, &group.postings));
    if (group.postings.empty()) {
      return Status::InvalidArgument("segment: empty posting group");
    }
    if (!segment.groups_.empty()) {
      const PostingGroup& prev = segment.groups_.back();
      auto key = [](const PostingGroup& g) {
        return std::tuple(g.term_id, g.corpus, g.type, g.method);
      };
      if (key(group) <= key(prev)) {
        return Status::InvalidArgument("segment: groups not sorted");
      }
    }
    total_postings += group.postings.size();
    segment.groups_.push_back(std::move(group));
  }
  if (!pin.empty()) {
    return Status::InvalidArgument("segment: trailing posting bytes");
  }
  if (total_postings != segment.num_postings_) {
    return Status::InvalidArgument("segment: posting count mismatch");
  }
  segment.BuildDocKeyCache();
  return segment;
}

Status Segment::WriteFile(const std::string& path) const {
  // The checkpoint container owns durability: serialize-to-tmp + rename,
  // magic header, FNV-1a trailer.
  return ToContainer().WriteFile(path);
}

Result<Segment> Segment::ReadFile(const std::string& path) {
  WSIE_ASSIGN_OR_RETURN(Checkpoint container, Checkpoint::ReadFile(path));
  // Re-serialize once to recover the container's byte footprint (the store
  // reports per-segment bytes from it).
  return FromContainer(container, container.Serialize().size());
}

void SegmentBuilder::Add(std::string_view name, uint8_t corpus, uint8_t type,
                         uint8_t method, Posting posting) {
  GroupKey key{std::string(name), corpus, type, method};
  entries_[std::move(key)].push_back(posting);
  ++num_postings_;
}

void SegmentBuilder::AddCorpusStats(uint8_t corpus, uint64_t docs,
                                    uint64_t sentences, uint64_t chars) {
  if (corpus >= kNumCorpora) return;
  corpus_stats_[corpus].docs += docs;
  corpus_stats_[corpus].sentences += sentences;
  corpus_stats_[corpus].chars += chars;
  has_stats_ = true;
}

void SegmentBuilder::MergeSegment(const Segment& segment) {
  for (const PostingGroup& group : segment.groups()) {
    const std::string& name = segment.terms()[group.term_id];
    GroupKey key{name, group.corpus, group.type, group.method};
    std::vector<Posting>& dst = entries_[key];
    dst.insert(dst.end(), group.postings.begin(), group.postings.end());
    num_postings_ += group.postings.size();
  }
  for (size_t c = 0; c < kNumCorpora; ++c) {
    const CorpusStats& stats = segment.corpus_stats()[c];
    if (stats.docs != 0 || stats.sentences != 0 || stats.chars != 0) {
      AddCorpusStats(static_cast<uint8_t>(c), stats.docs, stats.sentences,
                     stats.chars);
    }
  }
}

Result<Segment> SegmentBuilder::Finish(uint64_t id) {
  Segment segment;
  segment.id_ = id;
  segment.corpus_stats_ = corpus_stats_;
  segment.num_postings_ = num_postings_;

  // Dictionary: sorted unique term strings. entries_ is keyed by
  // (name, corpus, type, method) in lexicographic order, so names come out
  // sorted already; dedupe consecutive.
  for (const auto& [key, postings] : entries_) {
    if (segment.terms_.empty() || segment.terms_.back() != key.name) {
      segment.terms_.push_back(key.name);
    }
  }

  uint32_t term_id = 0;
  for (auto& [key, postings] : entries_) {
    while (segment.terms_[term_id] != key.name) ++term_id;
    PostingGroup group;
    group.term_id = term_id;
    group.corpus = key.corpus;
    group.type = key.type;
    group.method = key.method;
    std::sort(postings.begin(), postings.end());
    group.postings = std::move(postings);
    segment.groups_.push_back(std::move(group));
  }

  entries_.clear();
  corpus_stats_ = {};
  has_stats_ = false;
  num_postings_ = 0;

  segment.BuildDocKeyCache();
  segment.encoded_bytes_ = segment.Encode().size();
  return segment;
}

}  // namespace wsie::store
