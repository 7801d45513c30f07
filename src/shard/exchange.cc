#include "shard/exchange.h"

#include <utility>

#include "obs/trace.h"

namespace wsie::shard {

const char* ExchangeKindName(ExchangeKind kind) {
  switch (kind) {
    case ExchangeKind::kForward:
      return "forward";
    case ExchangeKind::kHash:
      return "hash";
    case ExchangeKind::kBroadcast:
      return "broadcast";
    case ExchangeKind::kGather:
      return "gather";
  }
  return "unknown";
}

RecordPartitioner::RecordPartitioner(size_t num_shards, std::string key_field)
    : ring_(num_shards), key_field_(std::move(key_field)) {}

std::string RecordPartitioner::KeyBytes(const dataflow::Record& record,
                                        const std::string& field) {
  const dataflow::Value& key = record.Field(field);
  if (key.is_string()) return key.AsString();
  if (key.is_int()) return std::to_string(key.AsInt());
  if (key.is_null()) return std::string();
  return key.ToJson();
}

int RecordPartitioner::ShardFor(const dataflow::Record& record) const {
  return ring_.ShardForKey(KeyBytes(record, key_field_));
}

void TagSerialOrder(dataflow::Dataset* records, int64_t* next_seq) {
  for (dataflow::Record& record : *records) {
    dataflow::Value::Array tag;
    tag.push_back(dataflow::Value((*next_seq)++));
    record.SetField(kSeqField, dataflow::Value(std::move(tag)));
  }
}

void MarkBroadcast(dataflow::Dataset* records) {
  for (dataflow::Record& record : *records) {
    record.SetField(kBcastField, dataflow::Value(true));
  }
}

void ExtendSeqTags(dataflow::Dataset* records) {
  // Records emitted from the same input record carry equal tags and are
  // adjacent (operators emit per input record, in input order), so a run
  // scan suffices to assign emission indices.
  size_t i = 0;
  while (i < records->size()) {
    size_t j = i;
    while (j + 1 < records->size() && !SeqLess((*records)[i], (*records)[j + 1]) &&
           !SeqLess((*records)[j + 1], (*records)[i])) {
      ++j;
    }
    for (size_t k = i; k <= j; ++k) {
      dataflow::Record& record = (*records)[k];
      dataflow::Value tag = record.Field(kSeqField);
      tag.MutableArray().push_back(
          dataflow::Value(static_cast<int64_t>(k - i)));
      record.SetField(kSeqField, std::move(tag));
    }
    i = j + 1;
  }
}

std::vector<dataflow::Dataset> PartitionDataset(
    dataflow::Dataset records, const RecordPartitioner& partitioner) {
  WSIE_TRACE_SPAN("exchange.partition");
  std::vector<dataflow::Dataset> shards(partitioner.num_shards());
  for (dataflow::Record& record : records) {
    const int shard = partitioner.ShardFor(record);
    shards[static_cast<size_t>(shard)].push_back(std::move(record));
  }
  return shards;
}

bool SeqLess(const dataflow::Record& a, const dataflow::Record& b) {
  const auto& ta = a.Field(kSeqField).AsArray();
  const auto& tb = b.Field(kSeqField).AsArray();
  const size_t n = ta.size() < tb.size() ? ta.size() : tb.size();
  for (size_t i = 0; i < n; ++i) {
    const int64_t va = ta[i].AsInt();
    const int64_t vb = tb[i].AsInt();
    if (va != vb) return va < vb;
  }
  return ta.size() < tb.size();
}

dataflow::Dataset MergeBySeq(std::vector<dataflow::Dataset> chunks) {
  WSIE_TRACE_SPAN("exchange.merge_by_seq");
  size_t total = 0;
  for (const dataflow::Dataset& chunk : chunks) total += chunk.size();
  dataflow::Dataset merged;
  merged.reserve(total);
  std::vector<size_t> cursor(chunks.size(), 0);
  for (;;) {
    int best = -1;
    for (size_t c = 0; c < chunks.size(); ++c) {
      if (cursor[c] >= chunks[c].size()) continue;
      if (best < 0 || SeqLess(chunks[c][cursor[c]],
                              chunks[static_cast<size_t>(best)]
                                    [cursor[static_cast<size_t>(best)]])) {
        best = static_cast<int>(c);
      }
      // Ties keep the lowest shard index: equal tags can only be broadcast
      // copies (identical derived records on every shard), and broadcast
      // dedup below keeps shard 0's copy.
    }
    if (best < 0) break;
    const size_t b = static_cast<size_t>(best);
    dataflow::Record& record = chunks[b][cursor[b]++];
    if (b != 0 && record.HasField(kBcastField)) continue;  // duplicate copy
    merged.push_back(std::move(record));
  }
  return merged;
}

void StripShardTags(dataflow::Dataset* records) {
  for (dataflow::Record& record : *records) {
    if (record.is_object()) {
      record.MutableObject().erase(kSeqField);
      record.MutableObject().erase(kBcastField);
    }
  }
}

}  // namespace wsie::shard
