#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/varint.h"
#include "core/analysis_context.h"
#include "core/pipeline.h"
#include "corpus/text_generator.h"
#include "crawler/focused_crawler.h"
#include "crawler/relevance_classifier.h"
#include "crawler/sharded_frontier.h"
#include "dataflow/executor.h"
#include "dataflow/fault_injection.h"
#include "dataflow/operators_base.h"
#include "dataflow/optimizer.h"
#include "dataflow/plan.h"
#include "dataflow/value.h"
#include "obs/metrics.h"
#include "obs/remote.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "shard/exchange.h"
#include "shard/partitioner.h"
#include "shard/planner.h"
#include "shard/runtime.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "store/annotation_store.h"
#include "store/segment.h"
#include "store/shard_merge.h"
#include "store/store_sink.h"
#include "web/simulated_web.h"

namespace wsie::shard {
namespace {

using dataflow::Dataset;
using dataflow::Record;
using dataflow::Value;

// ------------------------------------------------------------ HashRing

TEST(HashRingTest, Deterministic) {
  HashRing a(4), b(4);
  for (int i = 0; i < 200; ++i) {
    std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.ShardForKey(key), b.ShardForKey(key));
  }
}

TEST(HashRingTest, CoversAllShardsAndStaysInRange) {
  HashRing ring(5);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    int shard = ring.ShardForKey("k" + std::to_string(i));
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 5);
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(HashRingTest, BalanceBoundOnSyntheticKeys) {
  for (size_t shards : {2u, 4u, 8u}) {
    HashRing ring(shards);
    std::vector<size_t> counts(shards, 0);
    for (int i = 0; i < 10000; ++i) {
      ++counts[static_cast<size_t>(ring.ShardForKey("doc/" +
                                                    std::to_string(i)))];
    }
    size_t max_load = 0, min_load = 10000;
    for (size_t c : counts) {
      max_load = std::max(max_load, c);
      min_load = std::min(min_load, c);
    }
    ASSERT_GT(min_load, 0u);
    EXPECT_LE(static_cast<double>(max_load) / static_cast<double>(min_load),
              1.3)
        << shards << " shards: max " << max_load << " min " << min_load;
  }
}

TEST(HashRingTest, GrowingTheRingMovesOnlyKeysToTheNewShard) {
  // Point positions depend only on (shard, vnode), so going N -> N+1 adds
  // points without moving existing ones: a key either keeps its owner or
  // moves to the new shard, and the expected moved fraction is 1/(N+1).
  const size_t n = 4;
  HashRing before(n), after(n + 1);
  int moved = 0;
  const int total = 10000;
  for (int i = 0; i < total; ++i) {
    std::string key = "stable-" + std::to_string(i);
    int old_shard = before.ShardForKey(key);
    int new_shard = after.ShardForKey(key);
    if (old_shard != new_shard) {
      ++moved;
      EXPECT_EQ(new_shard, static_cast<int>(n)) << "remap must target the "
                                                   "new shard only";
    }
  }
  double fraction = static_cast<double>(moved) / total;
  EXPECT_GT(fraction, 0.10);
  EXPECT_LT(fraction, 0.35);  // expected 1/5 = 0.2
}

// ------------------------------------------------------------ Wire codec

Value TrickyValue() {
  Value v;
  v.SetField("id", static_cast<int64_t>(-12345678901234ll));
  v.SetField("pi", 3.14159265358979312);
  v.SetField("tiny", 5e-324);  // denormal: bit-exactness matters
  v.SetField("neg", -0.0);
  v.SetField("flag", true);
  v.SetField("none", Value());
  v.SetField("s", std::string("bytes\0with\xffnul", 14));
  Value arr(Value::Array{Value(1), Value("two"), Value(3.5)});
  v.SetField("arr", arr);
  Value nested;
  nested.SetField("deep", arr);
  v.SetField("obj", nested);
  return v;
}

TEST(WireTest, ValueRoundTripsExactly) {
  Value original = TrickyValue();
  std::string bytes;
  EncodeValue(original, &bytes);
  std::string_view in(bytes);
  Value decoded;
  ASSERT_TRUE(DecodeValue(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(original, decoded);
  EXPECT_EQ(original.ToJson(), decoded.ToJson());
}

TEST(WireTest, DatasetRoundTrip) {
  Dataset data;
  for (int i = 0; i < 17; ++i) {
    Record r = TrickyValue();
    r.SetField("i", i);
    data.push_back(std::move(r));
  }
  std::string bytes;
  EncodeDataset(data, &bytes);
  auto decoded = DecodeDataset(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) EXPECT_EQ(data[i], (*decoded)[i]);
}

TEST(WireTest, TruncationRejectedAtEveryPrefix) {
  std::string bytes;
  EncodeValue(TrickyValue(), &bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::string_view in(bytes.data(), len);
    Value out;
    EXPECT_FALSE(DecodeValue(&in, &out).ok()) << "prefix length " << len;
  }
}

TEST(WireTest, MalformedTagRejected) {
  std::string bytes = "\xfe";
  std::string_view in(bytes);
  Value out;
  EXPECT_FALSE(DecodeValue(&in, &out).ok());
  // A dataset claiming more records than bytes can hold is rejected
  // without allocation.
  std::string huge;
  PutVarint(&huge, 1ull << 40);
  EXPECT_FALSE(DecodeDataset(huge).ok());
  // An object repeating key "a" ({"a": null, "a": 1}) would otherwise lose
  // the second value and re-encode to fewer bytes.
  const std::string repeated_key("\x07\x02\x01" "a" "\x00\x01" "a" "\x03\x02",
                                 9);
  in = repeated_key;
  EXPECT_FALSE(DecodeValue(&in, &out).ok());
}

TEST(WireTest, VarintOverflowRejected) {
  // A 10-byte varint whose last byte carries bits above 2^63 does not fit
  // 64 bits; dropping those bits silently would decode a different value.
  const std::string overflow("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02",
                             10);
  // As the record count (it would read as 0 with the high bit dropped).
  const std::string zero_count(
      "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02", 10);
  EXPECT_FALSE(DecodeDataset(zero_count).ok());
  // As one record's int payload (it would read as a valid zigzag int).
  std::string int_record = "\x01\x03" + overflow;
  EXPECT_FALSE(DecodeDataset(int_record).ok());
  // The same payloads with the top bit alone still decode.
  std::string max_int = "\x01\x03" + overflow.substr(0, 9) + "\x01";
  EXPECT_TRUE(DecodeDataset(max_int).ok());
}

// ------------------------------------------------------------ Exchange

TEST(ExchangeTest, TagMergeStripRoundTrip) {
  // Three chunks with interleaved serial tags merge back to serial order.
  int64_t seq = 0;
  Dataset all;
  for (int i = 0; i < 30; ++i) {
    Record r;
    r.SetField("i", i);
    all.push_back(std::move(r));
  }
  TagSerialOrder(&all, &seq);
  EXPECT_EQ(seq, 30);
  std::vector<Dataset> chunks(3);
  for (size_t i = 0; i < all.size(); ++i) {
    chunks[i % 3].push_back(all[i]);
  }
  Dataset merged = MergeBySeq(std::move(chunks));
  ASSERT_EQ(merged.size(), 30u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(merged[static_cast<size_t>(i)].Field("i").AsInt(), i);
  }
  StripShardTags(&merged);
  for (const Record& r : merged) {
    EXPECT_FALSE(r.HasField(kSeqField));
    EXPECT_FALSE(r.HasField(kBcastField));
  }
}

TEST(ExchangeTest, BroadcastCopiesDedupedToChunkZero) {
  int64_t seq = 0;
  std::vector<Dataset> chunks(3);
  for (int c = 0; c < 3; ++c) {
    Dataset copy;
    Record r;
    r.SetField("dict", "entry");
    copy.push_back(std::move(r));
    int64_t s = seq;  // every shard's copy carries the same tag
    TagSerialOrder(&copy, &s);
    MarkBroadcast(&copy);
    chunks[static_cast<size_t>(c)] = std::move(copy);
  }
  Dataset merged = MergeBySeq(std::move(chunks));
  ASSERT_EQ(merged.size(), 1u);  // two broadcast duplicates dropped
}

TEST(ExchangeTest, ExtendSeqTagsPreservesSiblingOrder) {
  // A fan-out operator emitted three siblings under one tag; after the
  // extension they carry distinct lexicographically-ordered tags, so a
  // re-hash that spreads them across shards still merges them in emission
  // order.
  int64_t seq = 41;
  Dataset one;
  Record r;
  r.SetField("v", 0);
  one.push_back(std::move(r));
  TagSerialOrder(&one, &seq);
  Dataset siblings;
  for (int v = 0; v < 3; ++v) {
    Record s = one[0];
    s.SetField("v", v);
    siblings.push_back(std::move(s));
  }
  ExtendSeqTags(&siblings);
  std::vector<Dataset> spread(2);
  spread[0].push_back(siblings[1]);  // arbitrary placement across shards
  spread[1].push_back(siblings[0]);
  spread[1].push_back(siblings[2]);
  Dataset merged = MergeBySeq(std::move(spread));
  ASSERT_EQ(merged.size(), 3u);
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(merged[static_cast<size_t>(v)].Field("v").AsInt(), v);
  }
}

TEST(ExchangeTest, PartitionerRoutesMissingKeysDeterministically) {
  RecordPartitioner partitioner(4, "absent");
  Record a, b;
  a.SetField("x", 1);
  b.SetField("x", 2);
  EXPECT_EQ(partitioner.ShardFor(a), partitioner.ShardFor(b));
}

// ------------------------------------------------------------ Test plans

dataflow::OperatorPtr EnrichMap() {
  dataflow::OperatorTraits t;
  t.reads = {"x", "text"};
  t.writes = {"y"};
  t.cost_per_record = 2.0;
  return std::make_shared<dataflow::MapOperator>(
      "enrich",
      [](const Record& r) {
        Record c = r;
        c.SetField("y", r.Field("x").AsInt() * 3 +
                            static_cast<int64_t>(
                                r.Field("text").AsString().size()));
        return c;
      },
      t);
}

dataflow::OperatorPtr ModFilter() {
  dataflow::OperatorTraits t;
  t.reads = {"x"};
  t.selectivity = 0.66;
  return std::make_shared<dataflow::FilterOperator>(
      "mod_filter", [](const Record& r) { return r.Field("x").AsInt() % 3 != 0; },
      t);
}

dataflow::OperatorPtr DupFlatMap() {
  dataflow::OperatorTraits t;
  t.reads = {"x"};
  t.writes = {"k2", "dup"};
  t.selectivity = 1.2;
  return std::make_shared<dataflow::FlatMapOperator>(
      "dup",
      [](const Record& r, Dataset* out) {
        Record first = r;
        first.SetField("k2", "g" + std::to_string(r.Field("x").AsInt() % 9));
        out->push_back(std::move(first));
        if (r.Field("x").AsInt() % 5 == 0) {
          Record second = r;
          second.SetField("dup", true);
          second.SetField("k2",
                          "g" + std::to_string((r.Field("x").AsInt() + 4) % 9));
          out->push_back(std::move(second));
        }
      },
      t);
}

/// Record-at-a-time operator requiring co-location by "k2".
dataflow::OperatorPtr KeyedMap() {
  dataflow::OperatorTraits t;
  t.reads = {"k2", "x"};
  t.writes = {"z"};
  t.partition_key = "k2";
  return std::make_shared<dataflow::MapOperator>(
      "keyed",
      [](const Record& r) {
        Record c = r;
        c.SetField("z", r.Field("k2").AsString() + ":" +
                            std::to_string(r.Field("x").AsInt()));
        return c;
      },
      t);
}

dataflow::Plan ChainPlan(std::vector<dataflow::OperatorPtr> ops) {
  dataflow::Plan plan;
  int prev = plan.AddSource("in");
  for (auto& op : ops) prev = plan.AddNode(std::move(op), {prev});
  plan.MarkSink(prev, "out");
  return plan;
}

dataflow::Plan UnionPlan() {
  dataflow::Plan plan;
  int src = plan.AddSource("in");
  int a = plan.AddNode(EnrichMap(), {src});
  int b = plan.AddNode(ModFilter(), {src});
  dataflow::OperatorTraits breaker;
  breaker.record_at_a_time = false;  // pipeline breaker (union semantics)
  int u = plan.AddNode(std::make_shared<dataflow::MapOperator>(
                           "union_tag",
                           [](const Record& r) {
                             Record c = r;
                             c.SetField("u", true);
                             return c;
                           },
                           breaker),
                       {a, b});
  plan.MarkSink(u, "out");
  return plan;
}

Dataset RandomRecords(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    Record r;
    r.SetField("id", static_cast<int64_t>(i));
    r.SetField("key",
               std::string(1, static_cast<char>('a' + rng() % 7)) +
                   std::to_string(rng() % 13));
    r.SetField("x", static_cast<int64_t>(rng() % 1000));
    r.SetField("w", static_cast<double>(rng() % 10000) / 7.0);
    std::string text;
    for (size_t k = 0; k < 3 + rng() % 8; ++k) {
      text += "word" + std::to_string(rng() % 50) + " ";
    }
    r.SetField("text", text);
    data.push_back(std::move(r));
  }
  return data;
}

std::string SinkJson(const std::map<std::string, Dataset>& sinks,
                     const std::string& name) {
  std::string out;
  auto it = sinks.find(name);
  if (it == sinks.end()) return out;
  for (const Record& r : it->second) {
    out += r.ToJson();
    out += '\n';
  }
  return out;
}

std::string SerialJson(const dataflow::Plan& plan, const Dataset& input,
                       const std::string& sink = "out") {
  dataflow::Executor executor(dataflow::ExecutorConfig{});
  auto result = executor.Run(plan, {{"in", input}});
  EXPECT_TRUE(result.ok()) << result.status().message();
  return SinkJson(result->sink_outputs, sink);
}

// ------------------------------------------------------------ Planner

TEST(ShardPlannerTest, FusedChainIsOneShardedFragment) {
  dataflow::Plan plan = ChainPlan({EnrichMap(), ModFilter(), DupFlatMap()});
  auto sharded = ShardPlanner::Partition(plan, {});
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->fragments.size(), 1u);
  const Fragment& f = sharded->fragments[0];
  EXPECT_TRUE(f.sharded);
  ASSERT_EQ(f.inputs.size(), 1u);
  EXPECT_EQ(f.inputs[0].kind, ExchangeKind::kHash);
  EXPECT_EQ(f.inputs[0].key, "id");
  EXPECT_GE(f.sink_gather_channel, 0);
  EXPECT_EQ(sharded->sharded_fragments, 1u);
  EXPECT_FALSE(sharded->has_worker_exchange);
  // DupFlatMap writes k2, not id: the output is still partitioned by id.
  EXPECT_EQ(f.partition_field, "id");
}

TEST(ShardPlannerTest, BreakerPinnedToCoordinatorWithGathers) {
  auto sharded = ShardPlanner::Partition(UnionPlan(), {});
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->fragments.size(), 3u);
  EXPECT_TRUE(sharded->fragments[0].sharded);
  EXPECT_TRUE(sharded->fragments[1].sharded);
  const Fragment& u = sharded->fragments[2];
  EXPECT_FALSE(u.sharded);
  ASSERT_EQ(u.inputs.size(), 2u);
  EXPECT_EQ(u.inputs[0].kind, ExchangeKind::kGather);
  EXPECT_EQ(u.inputs[1].kind, ExchangeKind::kGather);
  EXPECT_FALSE(sharded->has_worker_exchange);
}

TEST(ShardPlannerTest, KeyChangeInsertsWorkerExchange) {
  // Unfused, the keyed map's fragment requires "k2" while the stream is
  // partitioned by "id": the planner re-hashes shard-to-shard.
  dataflow::Plan plan = ChainPlan({DupFlatMap(), KeyedMap()});
  ShardPlanner::Options options;
  options.fuse_pipelines = false;
  auto sharded = ShardPlanner::Partition(plan, options);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->fragments.size(), 2u);
  ASSERT_EQ(sharded->fragments[1].inputs.size(), 1u);
  EXPECT_EQ(sharded->fragments[1].inputs[0].kind, ExchangeKind::kHash);
  EXPECT_EQ(sharded->fragments[1].inputs[0].key, "k2");
  EXPECT_TRUE(sharded->has_worker_exchange);
}

TEST(ShardPlannerTest, FusedKeyRequirementScattersByThatKey) {
  // Fused into one fragment, the k2 requirement applies to the whole chain:
  // no worker exchange, but the initial scatter uses k2. (DupFlatMap
  // writes k2, so the fragment's output partition field is unknown.)
  dataflow::Plan plan = ChainPlan({DupFlatMap(), KeyedMap()});
  auto sharded = ShardPlanner::Partition(plan, {});
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->fragments.size(), 1u);
  EXPECT_TRUE(sharded->fragments[0].sharded);
  EXPECT_EQ(sharded->fragments[0].inputs[0].key, "k2");
  EXPECT_FALSE(sharded->has_worker_exchange);
  EXPECT_EQ(sharded->fragments[0].partition_field, "");
}

TEST(ShardPlannerTest, ProjectionDemotesItsFragment) {
  dataflow::Plan plan = ChainPlan(
      {EnrichMap(),
       std::make_shared<dataflow::ProjectionOperator>(
           "proj", std::vector<std::string>{"id", "y"})});
  auto sharded = ShardPlanner::Partition(plan, {});
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->sharded_fragments, 0u)
      << "an operator that drops unknown fields would lose the order tags";
}

TEST(ShardPlannerTest, ConflictingPartitionKeysDemote) {
  dataflow::OperatorTraits a_traits;
  a_traits.partition_key = "a";
  dataflow::OperatorTraits b_traits;
  b_traits.partition_key = "b";
  auto identity = [](const Record& r) { return r; };
  dataflow::Plan plan = ChainPlan(
      {std::make_shared<dataflow::MapOperator>("need_a", identity, a_traits),
       std::make_shared<dataflow::MapOperator>("need_b", identity, b_traits)});
  auto sharded = ShardPlanner::Partition(plan, {});
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->sharded_fragments, 0u);
}

TEST(ShardPlannerTest, BroadcastSourceEdges) {
  dataflow::Plan plan;
  int docs = plan.AddSource("in");
  int dict = plan.AddSource("dict");
  int node = plan.AddNode(EnrichMap(), {docs, dict});
  plan.MarkSink(node, "out");
  ShardPlanner::Options options;
  options.broadcast_sources = {"dict"};
  auto sharded = ShardPlanner::Partition(plan, options);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->fragments.size(), 1u);
  const Fragment& f = sharded->fragments[0];
  ASSERT_TRUE(f.sharded);
  ASSERT_EQ(f.inputs.size(), 2u);
  EXPECT_EQ(f.inputs[0].kind, ExchangeKind::kHash);
  EXPECT_EQ(f.inputs[1].kind, ExchangeKind::kBroadcast);
}

// ------------------------------------------------------- Split-correctness

class SplitCorrectnessTest : public ::testing::Test {
 protected:
  /// Runs `make_plan()` sharded at several shard counts and requires the
  /// sink bytes to equal the serial run's, for each partition key.
  void ExpectSplitCorrect(
      const std::function<dataflow::Plan()>& make_plan, const Dataset& input,
      const std::vector<std::string>& keys = {"id", "key", "x"},
      ShardOptions base = {}) {
    std::string serial = SerialJson(make_plan(), input);
    ASSERT_FALSE(serial.empty());
    for (const std::string& key : keys) {
      for (size_t shards : {1u, 2u, 3u, 7u, 16u}) {
        ShardOptions options = base;
        options.num_shards = shards;
        options.partition_key = key;
        options.dop_per_shard = 2;
        ShardRuntime runtime(options);
        auto result = runtime.Run(
            [&make_plan](int) { return make_plan(); }, {{"in", input}});
        ASSERT_TRUE(result.ok())
            << shards << " shards, key " << key << ": "
            << result.status().message();
        EXPECT_EQ(SinkJson(result->sink_outputs, "out"), serial)
            << shards << " shards, key " << key;
      }
    }
  }
};

TEST_F(SplitCorrectnessTest, RecordChainByteIdentical) {
  ExpectSplitCorrect(
      [] { return ChainPlan({EnrichMap(), ModFilter(), DupFlatMap()}); },
      RandomRecords(97, 7));
}

TEST_F(SplitCorrectnessTest, MissingPartitionKeyDegeneratesSafely) {
  ExpectSplitCorrect([] { return ChainPlan({EnrichMap(), ModFilter()}); },
                     RandomRecords(40, 11), {"no_such_field"});
}

TEST_F(SplitCorrectnessTest, UnionBreakerByteIdentical) {
  ExpectSplitCorrect([] { return UnionPlan(); }, RandomRecords(60, 13));
}

TEST_F(SplitCorrectnessTest, WorkerExchangeByteIdentical) {
  // Unfused: DupFlatMap runs partitioned by id, KeyedMap requires k2 — a
  // true shard-to-shard re-hash, with fan-out siblings crossing shards.
  ShardOptions base;
  base.fuse_pipelines = false;
  ExpectSplitCorrect([] { return ChainPlan({DupFlatMap(), KeyedMap()}); },
                     RandomRecords(80, 17), {"id", "key"}, base);
}

TEST_F(SplitCorrectnessTest, BroadcastInputByteIdentical) {
  dataflow::Plan plan;
  int docs = plan.AddSource("in");
  int dict = plan.AddSource("dict");
  int node = plan.AddNode(EnrichMap(), {docs, dict});
  plan.MarkSink(node, "out");

  Dataset input = RandomRecords(30, 19);
  Dataset dict_data = RandomRecords(5, 23);

  dataflow::Executor executor(dataflow::ExecutorConfig{});
  auto serial = executor.Run(plan, {{"in", input}, {"dict", dict_data}});
  ASSERT_TRUE(serial.ok());
  std::string expected = SinkJson(serial->sink_outputs, "out");

  for (size_t shards : {2u, 3u, 5u}) {
    ShardOptions options;
    options.num_shards = shards;
    options.broadcast_sources = {"dict"};
    ShardRuntime runtime(options);
    auto result = runtime.Run(
        [&plan](int) { return plan; },
        {{"in", input}, {"dict", dict_data}});
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(SinkJson(result->sink_outputs, "out"), expected)
        << shards << " shards";
  }
}

TEST_F(SplitCorrectnessTest, RandomPlansAndCorpora) {
  std::mt19937_64 rng(101);
  for (int round = 0; round < 4; ++round) {
    std::vector<dataflow::OperatorPtr> ops;
    ops.push_back(EnrichMap());
    if (rng() % 2 == 0) ops.push_back(ModFilter());
    if (rng() % 2 == 0) ops.push_back(DupFlatMap());
    auto make_plan = [&ops] {
      std::vector<dataflow::OperatorPtr> copy = ops;
      return ChainPlan(std::move(copy));
    };
    ExpectSplitCorrect(make_plan, RandomRecords(20 + rng() % 80, rng()),
                       {round % 2 == 0 ? "id" : "key"});
  }
}

TEST_F(SplitCorrectnessTest, FaultyOperatorsRecoverIdentically) {
  // Deterministically failing operators + task retries inside each shard's
  // executor: output still byte-identical to the clean serial run.
  auto make_faulty = [] {
    dataflow::FaultInjectionOptions fault;
    fault.seed = 77;
    fault.transient_prob = 0.4;
    return ChainPlan(
        {std::make_shared<dataflow::FaultInjectingOperator>(EnrichMap(), fault),
         ModFilter()});
  };
  Dataset input = RandomRecords(70, 29);
  std::string serial = SerialJson(ChainPlan({EnrichMap(), ModFilter()}), input);
  for (size_t shards : {1u, 2u, 3u, 7u}) {
    ShardOptions options;
    options.num_shards = shards;
    options.max_task_retries = 3;
    options.dop_per_shard = 2;
    ShardRuntime runtime(options);
    auto result =
        runtime.Run([&make_faulty](int) { return make_faulty(); },
                    {{"in", input}});
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(SinkJson(result->sink_outputs, "out"), serial)
        << shards << " shards";
  }
}

TEST_F(SplitCorrectnessTest, PermanentFaultFailsTheRun) {
  auto make_faulty = [] {
    dataflow::FaultInjectionOptions fault;
    fault.seed = 5;
    fault.permanent_prob = 0.5;
    return ChainPlan({std::make_shared<dataflow::FaultInjectingOperator>(
        EnrichMap(), fault)});
  };
  // The operator's permanent (non-retryable) error must surface in both
  // modes — not the retryable closed link the coordinator observes when a
  // forked worker exits early.
  for (bool multiprocess : {false, true}) {
    ShardOptions options;
    options.num_shards = 2;
    options.max_task_retries = 3;
    options.multiprocess = multiprocess;
    ShardRuntime runtime(options);
    auto result = runtime.Run([&make_faulty](int) { return make_faulty(); },
                              {{"in", RandomRecords(50, 31)}});
    ASSERT_FALSE(result.ok()) << "multiprocess=" << multiprocess;
    EXPECT_FALSE(result.status().IsRetryable())
        << "multiprocess=" << multiprocess << ": "
        << result.status().ToString();
  }
}

// ------------------------------------------------------------ Runtime

TEST(ShardRuntimeTest, WorkerStatsCoverEveryShard) {
  Dataset input = RandomRecords(60, 37);
  ShardOptions options;
  options.num_shards = 3;
  ShardRuntime runtime(options);
  auto result = runtime.Run(
      [](int) { return ChainPlan({EnrichMap(), ModFilter()}); },
      {{"in", input}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->workers.size(), 3u);
  uint64_t records_in = 0;
  for (const ShardWorkerStats& w : result->workers) {
    EXPECT_TRUE(w.status.ok());
    EXPECT_GE(w.wall_seconds, 0.0);
    records_in += w.records_in;
  }
  EXPECT_EQ(records_in, input.size());
  EXPECT_EQ(result->sharded_fragments, 1u);
  EXPECT_GT(result->rows_shuffled, 0u);
  EXPECT_GT(result->exchange_messages, 0u);
}

TEST(ShardRuntimeTest, ObsCountersAdvance) {
  auto& registry = obs::MetricsRegistry::Global();
  double runs_before = registry.GetCounter("wsie.shard.runs")->Value();
  double rows_before =
      registry.GetCounter("wsie.exchange.rows_shuffled")->Value();
  ShardOptions options;
  options.num_shards = 2;
  ShardRuntime runtime(options);
  auto result = runtime.Run([](int) { return ChainPlan({EnrichMap()}); },
                            {{"in", RandomRecords(25, 41)}});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(registry.GetCounter("wsie.shard.runs")->Value(), runs_before);
  EXPECT_GT(registry.GetCounter("wsie.exchange.rows_shuffled")->Value(),
            rows_before);
}

TEST(ShardRuntimeTest, SequentialWorkersMatchConcurrent) {
  Dataset input = RandomRecords(50, 43);
  std::string serial =
      SerialJson(ChainPlan({EnrichMap(), ModFilter()}), input);
  ShardOptions options;
  options.num_shards = 4;
  options.sequential_workers = true;
  ShardRuntime runtime(options);
  auto result = runtime.Run(
      [](int) { return ChainPlan({EnrichMap(), ModFilter()}); },
      {{"in", input}});
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(SinkJson(result->sink_outputs, "out"), serial);
}

TEST(ShardRuntimeTest, SequentialRejectsWorkerExchange) {
  ShardOptions options;
  options.num_shards = 2;
  options.sequential_workers = true;
  options.fuse_pipelines = false;  // forces the k2 re-hash
  ShardRuntime runtime(options);
  auto result = runtime.Run(
      [](int) { return ChainPlan({DupFlatMap(), KeyedMap()}); },
      {{"in", RandomRecords(10, 47)}});
  EXPECT_FALSE(result.ok());
}

TEST(ShardRuntimeTest, SequentialRejectsMultiprocess) {
  ShardOptions options;
  options.sequential_workers = true;
  options.multiprocess = true;
  ShardRuntime runtime(options);
  auto result = runtime.Run([](int) { return ChainPlan({EnrichMap()}); },
                            {{"in", RandomRecords(5, 53)}});
  EXPECT_FALSE(result.ok());
}

TEST(ShardRuntimeTest, CoordinatorFailureOutranksWorkerKnockOns) {
  // The coordinator fails first (no source bound); the workers only see
  // the abort — in-process its status, across processes a closed link.
  for (bool multiprocess : {false, true}) {
    ShardOptions options;
    options.num_shards = 3;
    options.multiprocess = multiprocess;
    ShardRuntime runtime(options);
    auto result =
        runtime.Run([](int) { return ChainPlan({EnrichMap()}); }, {});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "multiprocess=" << multiprocess << ": "
        << result.status().ToString();
  }
}

// --------------------------------------------------- Multi-process workers

TEST(ShardMultiProcessTest, SocketpairWorkersByteIdentical) {
  Dataset input = RandomRecords(60, 59);
  std::string serial =
      SerialJson(ChainPlan({EnrichMap(), ModFilter(), DupFlatMap()}), input);
  for (size_t shards : {2u, 3u}) {
    ShardOptions options;
    options.num_shards = shards;
    options.multiprocess = true;
    ShardRuntime runtime(options);
    auto result = runtime.Run(
        [](int) { return ChainPlan({EnrichMap(), ModFilter(), DupFlatMap()}); },
        {{"in", input}});
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(SinkJson(result->sink_outputs, "out"), serial)
        << shards << " forked workers";
    ASSERT_EQ(result->workers.size(), shards);
    for (const ShardWorkerStats& w : result->workers) {
      EXPECT_TRUE(w.status.ok());
    }
  }
}

TEST(ShardMultiProcessTest, UnionBreakerOverSocketpairs) {
  Dataset input = RandomRecords(45, 61);
  std::string serial = SerialJson(UnionPlan(), input);
  ShardOptions options;
  options.num_shards = 2;
  options.multiprocess = true;
  ShardRuntime runtime(options);
  auto result =
      runtime.Run([](int) { return UnionPlan(); }, {{"in", input}});
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(SinkJson(result->sink_outputs, "out"), serial);
}

// ------------------------------------------- Distributed observability

TEST(FrameTraceTest, TraceContextRoundTripsThroughFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Frame frame;
  frame.channel = 3;
  frame.from = 1;
  frame.to = 2;
  frame.rows = 2;
  frame.trace_id = 0xdeadbeefcafe1234ull;
  frame.parent_span = 0x42ull;
  EncodeDataset(RandomRecords(2, 67), &frame.payload);
  ASSERT_TRUE(WriteFrame(fds[0], frame).ok());
  Result<Frame> read = ReadFrame(fds[1]);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->channel, 3);
  EXPECT_EQ(read->from, 1);
  EXPECT_EQ(read->to, 2);
  EXPECT_EQ(read->rows, 2u);
  EXPECT_EQ(read->trace_id, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(read->parent_span, 0x42ull);
  EXPECT_EQ(read->payload, frame.payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

// Pushes `bytes` through a fresh socketpair and decodes them with
// ReadFrame; the write side is closed so a short stream fails fast.
Result<Frame> ReadFrameFromBytes(const std::string& bytes) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::Internal("socketpair failed");
  }
  const ssize_t sent = ::send(fds[0], bytes.data(), bytes.size(), 0);
  ::close(fds[0]);
  Result<Frame> read = static_cast<size_t>(sent) == bytes.size()
                           ? ReadFrame(fds[1])
                           : Result<Frame>(Status::Internal("short send"));
  ::close(fds[1]);
  return read;
}

// The encoded bytes of a small valid frame (via WriteFrame).
std::string ValidFrameBytes() {
  Frame frame;
  frame.channel = 1;
  frame.rows = 2;
  EncodeDataset(RandomRecords(2, 71), &frame.payload);
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_TRUE(WriteFrame(fds[0], frame).ok());
  ::close(fds[0]);
  std::string bytes;
  char buf[4096];
  for (ssize_t n = 0; (n = ::recv(fds[1], buf, sizeof(buf), 0)) > 0;) {
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[1]);
  return bytes;
}

TEST(FrameCodecTest, ReadFrameRejectsBadMagic) {
  std::string bytes = ValidFrameBytes();
  bytes[0] ^= 0x5a;
  Result<Frame> read = ReadFrameFromBytes(bytes);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("bad frame magic"),
            std::string::npos);
}

TEST(FrameCodecTest, ReadFrameRejectsPayloadOverOneGiB) {
  std::string bytes = ValidFrameBytes();
  // The u64 little-endian payload length sits at header offset 36.
  const uint64_t oversized = (1ull << 30) + 1;
  for (int i = 0; i < 8; ++i) {
    bytes[36 + i] = static_cast<char>((oversized >> (8 * i)) & 0xff);
  }
  Result<Frame> read = ReadFrameFromBytes(bytes);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("oversized frame"),
            std::string::npos);
}

TEST(FrameCodecTest, ReadFrameRejectsFlippedPayloadByte) {
  std::string bytes = ValidFrameBytes();
  bytes[44] ^= 0x01;  // first payload byte, just past the 44-byte header
  Result<Frame> read = ReadFrameFromBytes(bytes);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST(ShardObsCollectTest, MergedCountersAreExactSumsAndForkSafe) {
  // The fork-safety contract: a parent-side count bumped before the run
  // must never reappear in any worker's shipped snapshot (the child resets
  // its inherited registry immediately after fork).
  obs::MetricsRegistry::Global().GetCounter("wsie.test.fork.leak")->Add(7);
  Dataset input = RandomRecords(48, 71);
  auto run_once = [&input] {
    ShardOptions options;
    options.num_shards = 3;
    options.multiprocess = true;
    ShardRuntime runtime(options);
    return runtime.Run(
        [](int) { return ChainPlan({EnrichMap(), ModFilter()}); },
        {{"in", input}});
  };
  auto result = run_once();
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_TRUE(result->obs.collected);
  ASSERT_EQ(result->obs.per_shard.size(), 3u);
  EXPECT_GT(result->obs.bundle_bytes, 0u);
  for (const obs::ObsBundle& bundle : result->obs.per_shard) {
    EXPECT_EQ(bundle.metrics.CounterValue("wsie.test.fork.leak"), 0u)
        << "parent count leaked into shard " << bundle.shard;
    EXPECT_NE(bundle.os_pid, 0);
  }
  EXPECT_EQ(result->obs.merged.CounterValue("wsie.test.fork.leak"), 0u);

  // Coordinator-side merged counters equal the sum of the per-shard
  // counters exactly, for every counter family the workers shipped.
  uint64_t total_records_in = 0;
  for (const auto& counter : result->obs.merged.counters) {
    uint64_t sum = 0;
    for (const obs::ObsBundle& bundle : result->obs.per_shard) {
      sum += bundle.metrics.CounterValue(counter.name);
    }
    EXPECT_EQ(counter.value, sum) << counter.name;
  }
  total_records_in =
      result->obs.merged.CounterPrefixSum("wsie.dataflow.operator.records_in");
  EXPECT_GT(total_records_in, 0u);

  // Deterministic: a second identical run merges to the same record
  // counts (timing counters differ; the count families must not).
  auto again = run_once();
  ASSERT_TRUE(again.ok()) << again.status().message();
  ASSERT_TRUE(again->obs.collected);
  EXPECT_EQ(again->obs.merged.CounterPrefixSum(
                "wsie.dataflow.operator.records_in"),
            total_records_in);
  EXPECT_EQ(again->obs.merged.CounterPrefixSum(
                "wsie.dataflow.operator.records_out"),
            result->obs.merged.CounterPrefixSum(
                "wsie.dataflow.operator.records_out"));

  // The per-shard skew report covers every shard and its shares sum to 1.
  ASSERT_EQ(result->obs.skew.size(), 3u);
  double share = 0.0;
  uint64_t skew_records = 0;
  for (const ShardSkewRow& row : result->obs.skew) {
    share += row.share;
    skew_records += row.records_in;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);
  EXPECT_EQ(skew_records, input.size());
}

TEST(ShardObsCollectTest, EightForkedWorkersStitchIntoOneValidTrace) {
  obs::TraceRecorder::Global().SetEnabled(true);
  Dataset input = RandomRecords(64, 79);
  ShardOptions options;
  options.num_shards = 8;
  options.multiprocess = true;
  ShardRuntime runtime(options);
  auto result = runtime.Run(
      [](int) { return ChainPlan({EnrichMap(), ModFilter()}); },
      {{"in", input}});
  obs::TraceRecorder::Global().SetEnabled(false);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_TRUE(result->obs.collected);
  EXPECT_NE(result->trace_id, 0u);

  const std::string& json = result->obs.stitched_trace_json;
  ASSERT_FALSE(json.empty());
  Status checked = obs::ValidateChromeTrace(json);
  ASSERT_TRUE(checked.ok()) << checked.ToString();

  // One stitched document: the coordinator under pid 1 plus every worker
  // under its own distinct pid, each with its root span present.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("shard.run"), std::string::npos);
  for (int s = 0; s < 8; ++s) {
    EXPECT_NE(json.find("shard.worker." + std::to_string(s)),
              std::string::npos)
        << "missing worker span for shard " << s;
    EXPECT_NE(json.find("\"pid\":" + std::to_string(2 + s)),
              std::string::npos)
        << "missing pid for shard " << s;
  }
  // Cross-process causal links: worker root spans embed the run's trace id
  // in their args.
  char trace_tag[32];
  std::snprintf(trace_tag, sizeof(trace_tag), "trace=%llx",
                static_cast<unsigned long long>(result->trace_id));
  EXPECT_NE(json.find(trace_tag), std::string::npos);
  EXPECT_EQ(result->obs.stitch.processes, 9u);
  EXPECT_GE(result->obs.stitch.events, 2u * 9u);
  ASSERT_EQ(result->obs.offsets_ns.size(), result->obs.per_shard.size());
}

// ------------------------------------------------------------ Store merge

TEST(ShardStoreMergeTest, AbsorbShardStoresDeterministically) {
  namespace fs = std::filesystem;
  std::string base = ::testing::TempDir() + "/shard_merge_test";
  fs::remove_all(base);
  fs::create_directories(base + "/shards");

  uint64_t expected_postings = 0;
  for (int s = 0; s < 3; ++s) {
    auto store = store::AnnotationStore::Open(base + "/shards/shard-" +
                                              std::to_string(s));
    ASSERT_TRUE(store.ok());
    store::SegmentBuilder builder;
    for (int p = 0; p < 5 + s; ++p) {
      builder.Add("term" + std::to_string(p % 4), /*corpus=*/0, /*type=*/0,
                  /*method=*/0,
                  store::Posting{static_cast<uint64_t>(s * 100 + p), 0, 0, 4});
      ++expected_postings;
    }
    builder.AddCorpusStats(0, 1 + static_cast<uint64_t>(s), 10, 100);
    ASSERT_TRUE(store.value()->Append(std::move(builder)).ok());
  }

  auto target = store::AnnotationStore::Open(base + "/target");
  ASSERT_TRUE(target.ok());
  auto absorbed = store::AbsorbShardStores(target.value().get(),
                                           base + "/shards");
  ASSERT_TRUE(absorbed.ok()) << absorbed.status().message();
  EXPECT_EQ(absorbed.value(), 3u);
  EXPECT_EQ(target.value()->num_segments(), 3u);
  EXPECT_EQ(target.value()->snapshot().num_postings(), expected_postings);

  // The regular compactor path folds the per-shard segments into one.
  ASSERT_TRUE(target.value()->Compact().ok());
  EXPECT_EQ(target.value()->num_segments(), 1u);
  EXPECT_EQ(target.value()->snapshot().num_postings(), expected_postings);
  auto stats = target.value()->snapshot().segments[0]->corpus_stats();
  EXPECT_EQ(stats[0].docs, 1u + 2u + 3u);

  EXPECT_FALSE(
      store::AbsorbShardStores(target.value().get(), base + "/missing").ok());
  fs::remove_all(base);
}

// ------------------------------------------------------- Sharded frontier

TEST(HostShardRouterTest, DeterministicAndHostStable) {
  crawler::HostShardRouter router(4);
  crawler::HostShardRouter again(4);
  for (int i = 0; i < 50; ++i) {
    std::string host = "host" + std::to_string(i) + ".example";
    EXPECT_EQ(router.ShardForHost(host), again.ShardForHost(host));
    EXPECT_EQ(router.ShardForUrl("http://" + host + "/a.html"),
              router.ShardForUrl("http://" + host + "/deep/b.html"))
        << "all URLs of one host must land on one shard";
  }
  EXPECT_EQ(router.ShardForUrl("not a url"), -1);
}

class ShardedCrawlTest : public ::testing::Test {
 protected:
  ShardedCrawlTest()
      : lexicons_(corpus::LexiconConfig{800, 150, 150, 5}),
        web_(MakeWebConfig()),
        sim_(&web_, &lexicons_),
        classifier_(&lexicons_, MakeClassifierConfig()) {}

  static web::WebConfig MakeWebConfig() {
    web::WebConfig config;
    config.num_hosts = 30;
    config.mean_pages_per_host = 6;
    config.seed = 17;
    return config;
  }
  static crawler::ClassifierTrainConfig MakeClassifierConfig() {
    crawler::ClassifierTrainConfig config;
    config.docs_per_class = 120;
    config.relevance_threshold = 0.5;
    return config;
  }

  std::vector<std::string> BiomedSeeds(size_t count) {
    std::vector<std::string> seeds;
    for (const auto& page : web_.pages()) {
      if (seeds.size() >= count) break;
      const auto& host = web_.HostOf(page);
      if ((host.topic == web::HostTopic::kBiomedPortal ||
           host.topic == web::HostTopic::kBiomedResearch) &&
          page.mime == lang::MimeClass::kHtml && page.relevant) {
        seeds.push_back(web_.UrlOf(page));
      }
    }
    return seeds;
  }

  static std::set<std::string> CorpusUrls(const corpus::DocumentStore& store) {
    std::set<std::string> urls;
    for (const auto& doc : store.documents()) urls.insert(doc.url);
    return urls;
  }

  corpus::EntityLexicons lexicons_;
  web::SyntheticWeb web_;
  web::SimulatedWeb sim_;
  crawler::RelevanceClassifier classifier_;
};

TEST_F(ShardedCrawlTest, ShardedCrawlCoversTheSerialReachableSet) {
  std::vector<std::string> seeds = BiomedSeeds(12);
  ASSERT_FALSE(seeds.empty());

  crawler::FocusedCrawler serial(&sim_, &classifier_, crawler::CrawlerConfig{});
  serial.InjectSeeds(seeds);
  serial.Crawl();
  ASSERT_GT(serial.stats().fetched, 0u);

  crawler::ShardedCrawlOptions options;
  options.num_shards = 3;
  crawler::ShardedCrawl sharded(&sim_, &classifier_, options);
  sharded.InjectSeeds(seeds);
  sharded.Crawl();

  crawler::CrawlStats total = sharded.AggregateStats();
  EXPECT_EQ(total.fetched, serial.stats().fetched);
  EXPECT_EQ(total.classified_relevant, serial.stats().classified_relevant);
  EXPECT_GT(sharded.urls_exchanged(), 0u)
      << "cross-host links must cross shards";
  EXPECT_GE(sharded.rounds(), 1u);

  // The union of per-shard relevant corpora is exactly the serial corpus.
  std::set<std::string> serial_urls = CorpusUrls(serial.relevant_corpus());
  std::set<std::string> sharded_urls;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    for (const std::string& url :
         CorpusUrls(sharded.shard(s).relevant_corpus())) {
      EXPECT_TRUE(sharded_urls.insert(url).second)
          << url << " fetched by two shards";
    }
  }
  EXPECT_EQ(sharded_urls, serial_urls);
}

TEST_F(ShardedCrawlTest, HostStateStaysShardLocal) {
  std::vector<std::string> seeds = BiomedSeeds(12);
  crawler::ShardedCrawlOptions options;
  options.num_shards = 3;
  crawler::ShardedCrawl sharded(&sim_, &classifier_, options);
  sharded.InjectSeeds(seeds);
  sharded.Crawl();
  // Every host with dispatched fetches appears on exactly the shard the
  // router assigns it to.
  for (const auto& host : web_.hosts()) {
    int owner = sharded.router().ShardForHost(host.name);
    for (int s = 0; s < sharded.num_shards(); ++s) {
      if (s == owner) continue;
      EXPECT_EQ(sharded.shard(s).crawl_db().HostFetchCount(host.name), 0u)
          << host.name << " leaked onto shard " << s;
    }
  }
}

// ------------------------------------------------------ Real analysis flow

class ShardedFlowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::AnalysisContextConfig config;
    config.crf_training_sentences = 120;
    config.pos_training_sentences = 400;
    context_ = new std::shared_ptr<const core::AnalysisContext>(
        std::make_shared<const core::AnalysisContext>(config));
  }
  static void TearDownTestSuite() {
    delete context_;
    context_ = nullptr;
  }
  static core::ContextPtr context() { return *context_; }

  static std::vector<corpus::Document> MakeCorpus(size_t n, uint64_t seed) {
    corpus::TextGenerator generator(
        &context()->lexicons(),
        corpus::ProfileFor(corpus::CorpusKind::kMedline), seed);
    return generator.GenerateCorpus(seed * 1000, n);
  }

  static std::shared_ptr<const core::AnalysisContext>* context_;
};

std::shared_ptr<const core::AnalysisContext>* ShardedFlowTest::context_ =
    nullptr;

TEST_F(ShardedFlowTest, RunFlowShardedMatchesSerialRun) {
  std::vector<corpus::Document> docs = MakeCorpus(12, 3);
  core::FlowOptions flow;
  auto serial = core::RunFlow(core::BuildAnalysisFlow(context(), flow), docs,
                              dataflow::ExecutorConfig{});
  ASSERT_TRUE(serial.ok());
  std::string expected = SinkJson(serial->sink_outputs, "analyzed");
  ASSERT_FALSE(expected.empty());

  for (size_t shards : {1u, 2u, 3u}) {
    ShardOptions options;
    options.num_shards = shards;
    options.dop_per_shard = 2;
    auto result = core::RunFlowSharded(context(), flow, docs, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(SinkJson(result->sink_outputs, "analyzed"), expected)
        << shards << " shards";
    EXPECT_GT(result->sharded_fragments, 0u);
  }
}

TEST_F(ShardedFlowTest, PerShardStoreSegmentsMergeToSerialStore) {
  namespace fs = std::filesystem;
  std::vector<corpus::Document> docs = MakeCorpus(10, 5);
  core::FlowOptions flow;

  // Serial reference: one StoreSink tap over the whole corpus.
  auto serial_sink = std::make_shared<store::StoreSink>();
  dataflow::Plan serial_plan = core::BuildAnalysisFlow(context(), flow);
  ASSERT_NE(store::AttachStoreSink(&serial_plan, serial_sink),
            dataflow::Plan::kInvalidNode);
  auto serial = core::RunFlow(serial_plan, docs, dataflow::ExecutorConfig{});
  ASSERT_TRUE(serial.ok());
  uint64_t serial_postings = serial_sink->postings_accumulated();
  ASSERT_GT(serial_postings, 0u);

  // Sharded: each worker taps its own StoreSink and flushes it into its
  // own segment directory from per_shard_finish; the coordinator then
  // absorbs the shard stores and the regular compactor folds them.
  std::string base = ::testing::TempDir() + "/shard_flow_store";
  fs::remove_all(base);
  fs::create_directories(base + "/shards");

  const size_t kShards = 3;
  std::vector<std::shared_ptr<store::StoreSink>> sinks(kShards + 1);
  ShardOptions options;
  options.num_shards = kShards;
  options.per_shard_finish = [&sinks, &base](int shard) {
    auto store = store::AnnotationStore::Open(base + "/shards/shard-" +
                                              std::to_string(shard));
    if (!store.ok()) return store.status();
    return sinks[static_cast<size_t>(shard)]->FlushTo(store.value().get());
  };
  ShardRuntime runtime(options);
  auto result = runtime.Run(
      [&sinks, &flow](int shard) {
        dataflow::Plan plan = core::BuildAnalysisFlow(context(), flow);
        auto sink = std::make_shared<store::StoreSink>();
        sinks[static_cast<size_t>(shard)] = sink;
        store::AttachStoreSink(&plan, sink);
        return plan;
      },
      {{"docs", core::DocumentsToRecords(docs)}});
  ASSERT_TRUE(result.ok()) << result.status().message();

  auto target = store::AnnotationStore::Open(base + "/target");
  ASSERT_TRUE(target.ok());
  auto absorbed =
      store::AbsorbShardStores(target.value().get(), base + "/shards");
  ASSERT_TRUE(absorbed.ok()) << absorbed.status().message();
  EXPECT_EQ(target.value()->snapshot().num_postings(), serial_postings);
  ASSERT_TRUE(target.value()->Compact().ok());
  EXPECT_EQ(target.value()->snapshot().num_postings(), serial_postings);
  fs::remove_all(base);
}

}  // namespace
}  // namespace wsie::shard
