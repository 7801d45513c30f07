#ifndef WSIE_STORE_PARALLEL_MERGE_H_
#define WSIE_STORE_PARALLEL_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "store/segment.h"

namespace wsie {
class ThreadPool;
}  // namespace wsie

namespace wsie::store {

/// Partitioned parallel compaction merge.
///
/// Folds `segments` into one sorted segment with id `id`, exactly as the
/// serial path (a SegmentBuilder fed MergeSegment per input, then
/// Finish(id)) would — the encoded bytes are identical at every worker
/// and partition count, which tests/ingest_test.cc and bench/micro_ingest
/// gate.
///
/// How: the merged term universe (the sorted union of the inputs' term
/// dictionaries) is split into `partitions` contiguous term ranges whose
/// boundary terms are chosen deterministically from the dictionaries alone
/// — never from thread timing. Each range is k-way merged independently: a
/// worker walks every segment's group run for the range in segment order,
/// concatenates postings per (term, corpus, type, method) key, and sorts
/// each list — byte-for-byte what the serial builder computes for those
/// terms. The ordered partition outputs are then stitched: term ids are
/// re-based by prefix sums and group runs concatenated, reproducing the
/// global sorted order because no term straddles a range.
///
/// Scheduling uses the shared pool's caller-participating morsel loop
/// (ThreadPool::MorselFor), so compaction can run from any thread —
/// including a pool worker — without self-deadlock, and a task
/// that re-runs (the PR 7 retry discipline) recomputes its partition from
/// the pristine immutable inputs into its own slot, idempotently.
///
/// `pool` nullptr selects SharedThreadPool(); `workers` 0 uses the pool's
/// width; `partitions` 0 picks workers * 4 (clamped to the term count).
/// Inputs must outlive the call; an empty input list yields an empty
/// segment.
Result<Segment> MergeSegmentsParallel(
    const std::vector<std::shared_ptr<const Segment>>& segments, uint64_t id,
    ThreadPool* pool = nullptr, size_t workers = 0, size_t partitions = 0);

}  // namespace wsie::store

#endif  // WSIE_STORE_PARALLEL_MERGE_H_
