#ifndef WSIE_SHARD_EXCHANGE_H_
#define WSIE_SHARD_EXCHANGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/value.h"
#include "shard/partitioner.h"

namespace wsie::shard {

/// Hidden lineage fields the exchange layer rides on records while they are
/// on the shard side of the runtime. Record-at-a-time operators in this
/// repo transform the fields they declare and pass everything else through,
/// so the tags survive a fused chain; they are stripped at every gather
/// point, before any record reaches a sink or a coordinator fragment —
/// sink output is byte-identical to the serial run.
inline constexpr char kSeqField[] = "__shard_seq";
inline constexpr char kBcastField[] = "__shard_bcast";

/// How records cross a fragment boundary in a sharded plan.
enum class ExchangeKind {
  kForward,    ///< stays where it is (shard-local or coordinator-local)
  kHash,       ///< repartition by key over the consistent-hash ring
  kBroadcast,  ///< replicate to every shard (small dictionary-side inputs)
  kGather,     ///< collect all shards' chunks into one ordered stream
};

const char* ExchangeKindName(ExchangeKind kind);

/// Routes records to shards: FNV-1a over the declared partition key field,
/// then a consistent-hash ring lookup. Missing or null keys hash the empty
/// string (all land on one shard — degenerate but deterministic).
class RecordPartitioner {
 public:
  RecordPartitioner(size_t num_shards, std::string key_field);

  int ShardFor(const dataflow::Record& record) const;
  const std::string& key_field() const { return key_field_; }
  size_t num_shards() const { return ring_.num_shards(); }

  /// The byte string hashed for a record: strings verbatim, ints/doubles
  /// in canonical text form, anything else its JSON rendering.
  static std::string KeyBytes(const dataflow::Record& record,
                              const std::string& field);

 private:
  HashRing ring_;
  std::string key_field_;
};

/// Stamps each record with the next sequence tag `[*next_seq++]`. Called at
/// scatter points, in serial concatenation order, so the tag total-orders
/// every record of the scattered stream.
void TagSerialOrder(dataflow::Dataset* records, int64_t* next_seq);

/// Flags records as broadcast copies: every shard gets one, and the gather
/// merge keeps only shard 0's derived outputs.
void MarkBroadcast(dataflow::Dataset* records);

/// Extends each record's sequence tag with its local emission index before
/// a re-hash: a fan-out operator may have emitted several records with the
/// same tag, and after repartitioning by a different key those siblings can
/// land on different shards. The extra lexicographic level preserves their
/// relative emission order across the shuffle.
void ExtendSeqTags(dataflow::Dataset* records);

/// Splits `records` by partition key, preserving relative order per shard.
std::vector<dataflow::Dataset> PartitionDataset(
    dataflow::Dataset records, const RecordPartitioner& partitioner);

/// Lexicographic order on the hidden sequence tags.
bool SeqLess(const dataflow::Record& a, const dataflow::Record& b);

/// The deterministic ordered merge at a gather point: k-way merges chunks
/// (one per shard, each already tag-ordered) by sequence tag, tie-breaking
/// on the lower shard index, and dropping broadcast-derived records from
/// every shard but shard 0. The result is exactly the serial-run order
/// regardless of shard count or scheduling.
dataflow::Dataset MergeBySeq(std::vector<dataflow::Dataset> chunks);

/// Removes the hidden lineage fields.
void StripShardTags(dataflow::Dataset* records);

}  // namespace wsie::shard

#endif  // WSIE_SHARD_EXCHANGE_H_
