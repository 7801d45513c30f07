#include "store/parallel_merge.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace wsie::store {
namespace {

/// One partition's merged output: a local sorted term dictionary and the
/// group runs over it (term ids are partition-local until the stitch
/// re-bases them).
struct MergedPart {
  std::vector<std::string> terms;
  std::vector<PostingGroup> groups;
  uint64_t num_postings = 0;
};

/// Group key ordered exactly like SegmentBuilder's private GroupKey —
/// (name, corpus, type, method) lexicographically — but on views into the
/// immutable input segments, so the merge never copies a term string until
/// the part is emitted.
struct ViewKey {
  std::string_view name;
  uint8_t corpus = 0, type = 0, method = 0;

  friend bool operator<(const ViewKey& a, const ViewKey& b) {
    if (int c = a.name.compare(b.name); c != 0) return c < 0;
    return std::tuple(a.corpus, a.type, a.method) <
           std::tuple(b.corpus, b.type, b.method);
  }
};

/// Merges every input's groups whose terms fall in [range_lo, range_hi)
/// (range_hi empty + `open_end` = unbounded). Pure function of the inputs
/// and the range: a retried task recomputes the identical part.
MergedPart MergeTermRange(
    const std::vector<std::shared_ptr<const Segment>>& segments,
    std::string_view range_lo, std::string_view range_hi, bool open_end) {
  // Accumulate postings per key in segment order — the exact order the
  // serial SegmentBuilder::MergeSegment loop appends them in.
  std::map<ViewKey, std::vector<Posting>> entries;
  for (const auto& segment : segments) {
    const std::vector<std::string>& terms = segment->terms();
    const auto t_lo = static_cast<uint32_t>(
        std::lower_bound(terms.begin(), terms.end(), range_lo) -
        terms.begin());
    const auto t_hi =
        open_end ? static_cast<uint32_t>(terms.size())
                 : static_cast<uint32_t>(
                       std::lower_bound(terms.begin(), terms.end(), range_hi) -
                       terms.begin());
    if (t_lo >= t_hi) continue;
    const std::vector<PostingGroup>& groups = segment->groups();
    auto group_at = std::lower_bound(
        groups.begin(), groups.end(), t_lo,
        [](const PostingGroup& g, uint32_t id) { return g.term_id < id; });
    for (; group_at != groups.end() && group_at->term_id < t_hi; ++group_at) {
      const PostingGroup& group = *group_at;
      ViewKey key{terms[group.term_id], group.corpus, group.type,
                  group.method};
      std::vector<Posting>& dst = entries[key];
      dst.insert(dst.end(), group.postings.begin(), group.postings.end());
    }
  }

  MergedPart part;
  part.groups.reserve(entries.size());
  for (auto& [key, postings] : entries) {
    if (part.terms.empty() || part.terms.back() != key.name) {
      part.terms.emplace_back(key.name);
    }
    PostingGroup group;
    group.term_id = static_cast<uint32_t>(part.terms.size() - 1);
    group.corpus = key.corpus;
    group.type = key.type;
    group.method = key.method;
    std::sort(postings.begin(), postings.end());
    part.num_postings += postings.size();
    group.postings = std::move(postings);
    part.groups.push_back(std::move(group));
  }
  return part;
}

}  // namespace

Result<Segment> MergeSegmentsParallel(
    const std::vector<std::shared_ptr<const Segment>>& segments, uint64_t id,
    ThreadPool* pool, size_t workers, size_t partitions) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Gauge* partitions_gauge =
      registry.GetGauge("wsie.store.compact.partitions");
  obs::Histogram* partition_wall_ns =
      registry.GetHistogram("wsie.store.compact.partition_wall_ns");
  obs::Histogram* stitch_wall_ns =
      registry.GetHistogram("wsie.store.compact.stitch_wall_ns");

  if (pool == nullptr) pool = &SharedThreadPool();
  if (workers == 0) workers = pool->num_threads() + 1;  // + the caller

  // Term universe: the sorted union of every input dictionary. Boundary
  // terms come from here alone, so the partitioning — and therefore every
  // part — is a pure function of the pinned segments.
  std::vector<std::string_view> universe;
  for (const auto& segment : segments) {
    for (const std::string& term : segment->terms()) universe.push_back(term);
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());

  if (partitions == 0) partitions = workers * 4;
  if (partitions > universe.size()) partitions = universe.size();
  if (partitions == 0) partitions = 1;
  partitions_gauge->Set(static_cast<double>(partitions));

  // Partition p covers union terms [p*T/P, (p+1)*T/P) — contiguous ranges,
  // so no (term, corpus, type, method) key straddles two parts.
  std::vector<MergedPart> parts(partitions);
  const size_t total = universe.size();
  pool->MorselFor(
      partitions, workers, [&](size_t p) {
        Stopwatch watch;
        const size_t lo_at = p * total / partitions;
        const size_t hi_at = (p + 1) * total / partitions;
        const std::string_view lo =
            lo_at < total ? universe[lo_at] : std::string_view{};
        const bool open_end = p + 1 == partitions;
        const std::string_view hi =
            open_end || hi_at >= total ? std::string_view{} : universe[hi_at];
        parts[p] = MergeTermRange(segments, p == 0 ? std::string_view{} : lo,
                                  hi, open_end);
        partition_wall_ns->Observe(static_cast<double>(watch.ElapsedNs()));
        return true;
      });

  // Stitch the ordered parts into one segment: re-base term ids by prefix
  // sum, concatenate group runs, and sum the per-corpus totals exactly as
  // serial MergeSegment accumulation would.
  Stopwatch stitch_watch;
  Segment merged;
  merged.id_ = id;
  for (const auto& segment : segments) {
    for (size_t c = 0; c < kNumCorpora; ++c) {
      const CorpusStats& stats = segment->corpus_stats()[c];
      merged.corpus_stats_[c].docs += stats.docs;
      merged.corpus_stats_[c].sentences += stats.sentences;
      merged.corpus_stats_[c].chars += stats.chars;
    }
  }
  size_t total_terms = 0, total_groups = 0;
  for (const MergedPart& part : parts) {
    total_terms += part.terms.size();
    total_groups += part.groups.size();
  }
  merged.terms_.reserve(total_terms);
  merged.groups_.reserve(total_groups);
  for (MergedPart& part : parts) {
    const auto base = static_cast<uint32_t>(merged.terms_.size());
    for (std::string& term : part.terms) {
      merged.terms_.push_back(std::move(term));
    }
    for (PostingGroup& group : part.groups) {
      group.term_id += base;
      merged.num_postings_ += group.postings.size();
      merged.groups_.push_back(std::move(group));
    }
  }
  merged.BuildDocKeyCache();
  merged.encoded_bytes_ = merged.Encode().size();
  stitch_wall_ns->Observe(static_cast<double>(stitch_watch.ElapsedNs()));
  return merged;
}

}  // namespace wsie::store
