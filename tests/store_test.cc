// Tests for the persistent annotation store (segments, durability,
// compaction) and the concurrent query serving layer: round-trips are
// exact, corruption is rejected with a Status (never UB), and snapshot
// isolation holds while compaction runs under the readers' feet.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/varint.h"

#include "dataflow/value.h"
#include "fault/checkpoint.h"
#include "serve/query_engine.h"
#include "store/annotation_store.h"
#include "store/posting_codec.h"
#include "store/segment.h"
#include "store/store_sink.h"

namespace wsie::store {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "wsie_store_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

SegmentBuilder SmallBuilder() {
  SegmentBuilder builder;
  builder.Add("braf", 0, 0, 0, Posting{1, 0, 10, 14});
  builder.Add("braf", 0, 0, 0, Posting{2, 3, 5, 9});
  builder.Add("braf", 0, 0, 1, Posting{1, 0, 10, 14});
  builder.Add("braf", 2, 0, 0, Posting{7, 1, 0, 4});
  builder.Add("aspirin", 0, 1, 0, Posting{1, 1, 20, 27});
  builder.Add("melanoma", 2, 2, 1, Posting{7, 2, 30, 38});
  builder.AddCorpusStats(0, 2, 9, 400);
  builder.AddCorpusStats(2, 1, 5, 220);
  return builder;
}

// ---------------------------------------------------------- segments

TEST(SegmentTest, BuilderProducesSortedDictionaryAndGroups) {
  auto segment = SmallBuilder().Finish(1);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  EXPECT_EQ(segment->terms(),
            (std::vector<std::string>{"aspirin", "braf", "melanoma"}));
  EXPECT_EQ(segment->num_postings(), 6u);
  // Groups sorted by (term_id, corpus, type, method) and contiguous.
  int braf = segment->FindTerm("braf");
  ASSERT_GE(braf, 0);
  auto groups = segment->GroupsForTerm(static_cast<uint32_t>(braf));
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].corpus, 0);
  EXPECT_EQ(groups[0].method, 0);
  EXPECT_EQ(groups[0].postings.size(), 2u);
  EXPECT_EQ(groups[1].method, 1);
  EXPECT_EQ(groups[2].corpus, 2);
  EXPECT_EQ(segment->FindTerm("unknown"), -1);
  EXPECT_TRUE(segment->GroupsForTerm(999).empty());
  EXPECT_EQ(segment->corpus_stats()[0].sentences, 9u);
  EXPECT_EQ(segment->corpus_stats()[2].docs, 1u);
}

TEST(SegmentTest, EncodeDecodeRoundTripIsExact) {
  auto segment = SmallBuilder().Finish(42);
  ASSERT_TRUE(segment.ok());
  std::string bytes = segment->Encode();
  auto decoded = Segment::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id(), 42u);
  EXPECT_EQ(decoded->terms(), segment->terms());
  EXPECT_EQ(decoded->groups(), segment->groups());
  EXPECT_EQ(decoded->corpus_stats(), segment->corpus_stats());
  EXPECT_EQ(decoded->num_postings(), segment->num_postings());
}

TEST(SegmentTest, FileRoundTripAndPrefixRange) {
  std::string dir = FreshDir("file_round_trip");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/seg-1.wseg";
  auto segment = SmallBuilder().Finish(1);
  ASSERT_TRUE(segment.ok());
  ASSERT_TRUE(segment->WriteFile(path).ok());
  auto loaded = Segment::ReadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->terms(), segment->terms());
  auto [first, last] = loaded->PrefixRange("br");
  EXPECT_EQ(last - first, 1u);
  EXPECT_EQ(loaded->terms()[first], "braf");
  auto [none_first, none_last] = loaded->PrefixRange("zz");
  EXPECT_EQ(none_first, none_last);
}

TEST(SegmentTest, EveryBitFlipIsRejectedNotUb) {
  auto segment = SmallBuilder().Finish(1);
  ASSERT_TRUE(segment.ok());
  std::string bytes = segment->Encode();
  // Flip one bit at a spread of positions covering the magic, the frame,
  // the payload, and the checksum trailer: decode must return an error
  // every time (the container checksums all bytes).
  for (size_t pos = 0; pos < bytes.size();
       pos += 1 + bytes.size() / 97) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    auto decoded = Segment::Decode(corrupt);
    EXPECT_FALSE(decoded.ok()) << "bit flip at " << pos << " accepted";
  }
}

TEST(SegmentTest, TruncationIsRejected) {
  auto segment = SmallBuilder().Finish(1);
  ASSERT_TRUE(segment.ok());
  std::string bytes = segment->Encode();
  for (size_t len : {size_t{0}, size_t{4}, bytes.size() / 2,
                     bytes.size() - 1}) {
    auto decoded = Segment::Decode(std::string_view(bytes.data(), len));
    EXPECT_FALSE(decoded.ok()) << "truncation to " << len << " accepted";
  }
}

TEST(SegmentTest, StructurallyBadSectionsAreRejected) {
  // A container that passes the checksum but carries nonsense sections
  // must still be rejected by the segment-level validation.
  fault::Checkpoint container;
  container.SetSection("meta", "short");
  container.SetSection("dict", "");
  container.SetSection("postings", "");
  EXPECT_FALSE(Segment::Decode(container.Serialize()).ok());

  // Valid container, missing the postings section entirely.
  auto segment = SmallBuilder().Finish(1);
  ASSERT_TRUE(segment.ok());
  auto parsed = fault::Checkpoint::Deserialize(segment->Encode());
  ASSERT_TRUE(parsed.ok());
  fault::Checkpoint no_postings = *parsed;
  no_postings.SetSection("postings", "");
  EXPECT_FALSE(Segment::Decode(no_postings.Serialize()).ok());
}

// --------------------------------------------- group-varint codec

// The scalar delta/varint codec is the golden reference: every property
// test encodes with both codecs and demands identical decoded vectors,
// and identical accept/reject behaviour on corrupted bytes.

std::vector<Posting> RoundTripBoth(const std::vector<Posting>& postings) {
  std::string scalar_bytes, grouped_bytes;
  EXPECT_TRUE(EncodePostingList(postings, &scalar_bytes).ok());
  EXPECT_TRUE(EncodePostingListGrouped(postings, &grouped_bytes).ok());

  std::string_view scalar_in = scalar_bytes;
  std::string_view grouped_in = grouped_bytes;
  std::vector<Posting> scalar_out, grouped_out;
  EXPECT_TRUE(DecodePostingList(&scalar_in, &scalar_out).ok());
  EXPECT_TRUE(DecodePostingListGrouped(&grouped_in, &grouped_out).ok());
  EXPECT_TRUE(scalar_in.empty());
  EXPECT_TRUE(grouped_in.empty());
  EXPECT_EQ(scalar_out, postings);
  EXPECT_EQ(grouped_out, postings);
  return grouped_out;
}

TEST(GroupVarintTest, EmptyAndSingleRoundTrip) {
  RoundTripBoth({});
  RoundTripBoth({{7, 3, 10, 14}});
  RoundTripBoth({{0, 0, 0, 0}});
}

TEST(GroupVarintTest, MaxDeltaBoundaries) {
  const uint64_t u32max = 0xffffffffull;
  // Gaps exactly at the uint32 boundary stay on the grouped path; one past
  // it (and a huge first id) must fall back to the scalar-flag payload.
  // Both must round-trip exactly either way.
  RoundTripBoth({{u32max, 0xffffffffu, 0xfffffffeu, 0xffffffffu}});
  RoundTripBoth({{1, 0, 0, 0}, {1 + u32max, 0, 0, 0}});
  RoundTripBoth({{u32max + 1, 0, 0, 0}});
  RoundTripBoth({{5, 0, 0, 0}, {5 + u32max + 1, 0, 0, 0}});
  RoundTripBoth({{0xfffffffffffffff0ull, 9, 1, 2},
                 {0xfffffffffffffff1ull, 0, 0, 0}});
}

TEST(GroupVarintTest, RandomListsRoundTrip) {
  Rng rng(0xc0dec);
  for (int iter = 0; iter < 50; ++iter) {
    size_t n = rng.Uniform(40);
    std::vector<Posting> postings;
    uint64_t doc = rng.Uniform(1000);
    for (size_t i = 0; i < n; ++i) {
      doc += rng.Uniform(1 << (1 + rng.Uniform(30)));
      uint32_t begin = static_cast<uint32_t>(rng.Uniform(1u << 20));
      postings.push_back({doc, static_cast<uint32_t>(rng.Uniform(1u << 16)),
                          begin,
                          begin + static_cast<uint32_t>(rng.Uniform(200))});
    }
    std::sort(postings.begin(), postings.end());
    postings.erase(std::unique(postings.begin(), postings.end()),
                   postings.end());
    RoundTripBoth(postings);
  }
}

TEST(GroupVarintTest, LongListExercisesSimdAndTail) {
  // > 4 groups past the 17-byte SIMD window so both the vector kernel and
  // the bounds-checked scalar tail run (when SIMD is active on this host).
  std::vector<Posting> postings;
  uint64_t doc = 0;
  for (int i = 0; i < 257; ++i) {
    doc += 1 + (i % 300) * (i % 5);
    postings.push_back({doc, static_cast<uint32_t>(i * 977),
                        static_cast<uint32_t>(i), static_cast<uint32_t>(i + 1 + i % 90)});
  }
  RoundTripBoth(postings);
}

TEST(GroupVarintTest, EncoderRejectsSameInputsAsScalar) {
  const std::vector<std::vector<Posting>> bad = {
      {{5, 0, 0, 0}, {4, 0, 0, 0}},      // unsorted docs
      {{5, 2, 0, 0}, {5, 1, 0, 0}},      // unsorted within doc
      {{5, 0, 9, 3}},                    // end < begin
  };
  for (const auto& postings : bad) {
    std::string scalar_bytes, grouped_bytes;
    EXPECT_FALSE(EncodePostingList(postings, &scalar_bytes).ok());
    EXPECT_FALSE(EncodePostingListGrouped(postings, &grouped_bytes).ok());
  }
  // Equal postings are allowed by both codecs (non-strict order) — parity
  // means agreeing on acceptance, too.
  RoundTripBoth({{5, 0, 0, 0}, {5, 0, 0, 0}});
}

TEST(GroupVarintTest, TruncationRejectionParity) {
  std::vector<Posting> postings;
  uint64_t doc = 100;
  for (int i = 0; i < 60; ++i) {
    doc += 1 + i * 31;
    postings.push_back({doc, static_cast<uint32_t>(i * 7),
                        static_cast<uint32_t>(i * 1000),
                        static_cast<uint32_t>(i * 1000 + 20)});
  }
  std::string bytes;
  ASSERT_TRUE(EncodePostingListGrouped(postings, &bytes).ok());
  // Every strict prefix must be rejected: the count header promises 60
  // postings, so running out of bytes mid-stream is always detectable.
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::string_view in(bytes.data(), len);
    std::vector<Posting> out;
    EXPECT_FALSE(DecodePostingListGrouped(&in, &out).ok())
        << "truncation to " << len << " accepted";
  }
}

TEST(GroupVarintTest, BitFlipsNeverCrashAndNeverYieldInvalidLists) {
  // Without a checksum, a bit flip may still decode (to different
  // postings) — the container layer catches those. At the codec layer the
  // contract is: no UB, and anything accepted is a structurally valid
  // sorted list. Mirrors the scalar codec's rejection tests.
  std::vector<Posting> postings;
  uint64_t doc = 3;
  for (int i = 0; i < 24; ++i) {
    doc += 1 + i;
    postings.push_back({doc, static_cast<uint32_t>(i), 10u * i, 10u * i + 4});
  }
  std::string bytes;
  ASSERT_TRUE(EncodePostingListGrouped(postings, &bytes).ok());
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      std::string_view in = corrupt;
      std::vector<Posting> out;
      if (DecodePostingListGrouped(&in, &out).ok()) {
        for (size_t i = 0; i + 1 < out.size(); ++i) {
          EXPECT_LT(out[i], out[i + 1]);
        }
        for (const Posting& p : out) EXPECT_LE(p.begin, p.end);
      }
    }
  }
}

TEST(GroupVarintTest, StructurallyBadHeadersRejected) {
  {
    // Unknown flag byte.
    std::string bytes;
    PutVarint(&bytes, 1);
    bytes.push_back(0x07);
    bytes.append(5, '\0');
    std::string_view in = bytes;
    std::vector<Posting> out;
    EXPECT_FALSE(DecodePostingListGrouped(&in, &out).ok());
  }
  {
    // Count far beyond the available bytes (allocation-bomb guard).
    std::string bytes;
    PutVarint(&bytes, 1ull << 40);
    bytes.push_back(0x01);
    std::string_view in = bytes;
    std::vector<Posting> out;
    EXPECT_FALSE(DecodePostingListGrouped(&in, &out).ok());
  }
  {
    // Scalar-flag payload whose doc gap overflows the accumulator: parity
    // with the scalar codec's overflow rejection.
    std::string payload;
    PutVarint(&payload, 0xffffffffffffffffull);  // first doc id
    PutVarint(&payload, 0);
    PutVarint(&payload, 0);
    PutVarint(&payload, 0);
    PutVarint(&payload, 2);  // second gap: 0xffff... + 2 overflows
    PutVarint(&payload, 0);
    PutVarint(&payload, 0);
    PutVarint(&payload, 0);
    std::string bytes;
    PutVarint(&bytes, 2);
    bytes.push_back(0x00);
    bytes += payload;
    std::string_view in = bytes;
    std::vector<Posting> out;
    EXPECT_FALSE(DecodePostingListGrouped(&in, &out).ok());
  }
}

TEST(GroupVarintTest, SimdDispatchReportsAndMatchesScalarPath) {
  // Informational: on CI hosts with SSSE3/NEON the SIMD kernel must be
  // active; either way the decode above already proved bit-compatibility.
  (void)GroupVarintSimdActive();
  SUCCEED();
}

// ---------------------------------------------------------- store

TEST(AnnotationStoreTest, AppendPersistReopen) {
  std::string dir = FreshDir("append_reopen");
  {
    auto store = AnnotationStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(SmallBuilder()).ok());
    SegmentBuilder more;
    more.Add("tp53", 1, 0, 1, Posting{11, 0, 1, 5});
    more.AddCorpusStats(1, 1, 3, 90);
    ASSERT_TRUE((*store)->Append(std::move(more)).ok());
    EXPECT_EQ((*store)->num_segments(), 2u);
  }
  auto reopened = AnnotationStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_segments(), 2u);
  EXPECT_EQ((*reopened)->snapshot().num_postings(), 7u);
}

TEST(AnnotationStoreTest, CorruptSegmentFileRejectedAtOpen) {
  std::string dir = FreshDir("corrupt_open");
  {
    auto store = AnnotationStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(SmallBuilder()).ok());
  }
  // Flip a byte in the middle of the segment file.
  std::string seg_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".wseg") seg_path = entry.path();
  }
  ASSERT_FALSE(seg_path.empty());
  std::string bytes = ReadWholeFile(seg_path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xff);
  WriteWholeFile(seg_path, bytes);
  auto reopened = AnnotationStore::Open(dir);
  EXPECT_FALSE(reopened.ok());
}

TEST(AnnotationStoreTest, CompactionPreservesContentAndUnlinksInputs) {
  std::string dir = FreshDir("compaction");
  auto store_or = AnnotationStore::Open(dir);
  ASSERT_TRUE(store_or.ok());
  auto store = *store_or;
  for (int i = 0; i < 4; ++i) {
    SegmentBuilder builder;
    builder.Add("braf", 0, 0, 0,
                Posting{static_cast<uint64_t>(i), 0, 0, 4});
    builder.Add("name" + std::to_string(i), 0, 0, 1,
                Posting{static_cast<uint64_t>(i), 1, 8, 12});
    builder.AddCorpusStats(0, 1, 2, 50);
    ASSERT_TRUE(store->Append(std::move(builder)).ok());
  }
  uint64_t postings_before = store->snapshot().num_postings();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(store->num_segments(), 1u);
  auto snap = store->snapshot();
  EXPECT_EQ(snap.num_postings(), postings_before);
  const Segment& merged = *snap.segments[0];
  int braf = merged.FindTerm("braf");
  ASSERT_GE(braf, 0);
  auto groups = merged.GroupsForTerm(static_cast<uint32_t>(braf));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].postings.size(), 4u);  // merged + doc-sorted
  EXPECT_EQ(merged.corpus_stats()[0].sentences, 8u);
  // One segment file + MANIFEST remain on disk.
  size_t seg_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".wseg") ++seg_files;
  }
  EXPECT_EQ(seg_files, 1u);
  // The store survives a reopen after compaction.
  auto reopened = AnnotationStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->snapshot().num_postings(), postings_before);
}

TEST(AnnotationStoreTest, SnapshotIsolationAcrossCompaction) {
  std::string dir = FreshDir("snapshot_isolation");
  auto store_or = AnnotationStore::Open(dir);
  ASSERT_TRUE(store_or.ok());
  auto store = *store_or;
  for (int i = 0; i < 3; ++i) {
    SegmentBuilder builder;
    builder.Add("gene" + std::to_string(i), 0, 0, 0,
                Posting{static_cast<uint64_t>(i), 0, 0, 4});
    ASSERT_TRUE(store->Append(std::move(builder)).ok());
  }
  AnnotationStore::Snapshot before = store->snapshot();
  EXPECT_EQ(before.segments.size(), 3u);
  ASSERT_TRUE(store->Compact().ok());
  // The old snapshot still serves the pre-merge segments.
  EXPECT_EQ(before.segments.size(), 3u);
  EXPECT_EQ(before.num_postings(), 3u);
  for (const auto& segment : before.segments) {
    EXPECT_EQ(segment->num_postings(), 1u);
  }
  AnnotationStore::Snapshot after = store->snapshot();
  EXPECT_EQ(after.segments.size(), 1u);
  EXPECT_GT(after.epoch, before.epoch);
  EXPECT_EQ(after.num_postings(), 3u);
}

// ---------------------------------------------------------- store sink

dataflow::Record AnalyzedRecord(int64_t id, const std::string& corpus,
                                const std::string& text, int num_sentences,
                                const std::vector<std::array<std::string, 3>>&
                                    annotations) {
  dataflow::Record record;
  record.SetField("id", id);
  record.SetField("corpus", corpus);
  record.SetField("text", text);
  dataflow::Value::Array sentences;
  for (int i = 0; i < num_sentences; ++i) {
    dataflow::Value sentence;
    sentence.SetField("b", static_cast<int64_t>(i * 10));
    sentence.SetField("e", static_cast<int64_t>(i * 10 + 9));
    sentences.push_back(std::move(sentence));
  }
  record.SetField("sentences", dataflow::Value(std::move(sentences)));
  dataflow::Value::Array entities;
  int offset = 0;
  for (const auto& [type, method, surface] : annotations) {
    dataflow::Value entity;
    entity.SetField("type", type);
    entity.SetField("method", method);
    entity.SetField("surface", surface);
    entity.SetField("b", static_cast<int64_t>(offset));
    entity.SetField("e",
                    static_cast<int64_t>(offset + surface.size()));
    offset += 10;
    entities.push_back(std::move(entity));
  }
  record.SetField("entities", dataflow::Value(std::move(entities)));
  return record;
}

TEST(StoreSinkTest, AccumulatesNormalizedPostingsAndDedupesDocStats) {
  StoreSink sink;
  dataflow::Dataset unused;
  std::vector<dataflow::Record> batch;
  batch.push_back(AnalyzedRecord(1, "Medline", std::string(95, 'x'), 3,
                                 {{"gene", "dict", "BRAF"},
                                  {"gene", "ml", "braf"},
                                  {"bogus", "dict", "skipme"},
                                  {"gene", "unknown", "skipme"}}));
  // The same document arriving on a second union branch: entities
  // accumulate, document stats must not double-count.
  batch.push_back(AnalyzedRecord(1, "Medline", std::string(95, 'x'), 3,
                                 {{"drug", "dict", "Aspirin"}}));
  ASSERT_TRUE(sink.ProcessSpan(batch, &unused).ok());
  EXPECT_TRUE(unused.empty());  // a tap, not a transform
  EXPECT_EQ(sink.postings_accumulated(), 3u);

  auto segment = sink.TakeBuilder().Finish(1);
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ(segment->terms(),
            (std::vector<std::string>{"aspirin", "braf"}));  // lowercased
  int medline = 2;  // corpus::CorpusKind::kMedline
  EXPECT_EQ(segment->corpus_stats()[medline].docs, 1u);
  EXPECT_EQ(segment->corpus_stats()[medline].sentences, 3u);
  EXPECT_EQ(segment->corpus_stats()[medline].chars, 95u);
}

TEST(StoreSinkTest, UnknownCorpusIsAnError) {
  StoreSink sink;
  dataflow::Dataset unused;
  std::vector<dataflow::Record> batch;
  batch.push_back(
      AnalyzedRecord(1, "NoSuchCorpus", "text", 1, {{"gene", "dict", "a"}}));
  EXPECT_FALSE(sink.ProcessSpan(batch, &unused).ok());
}

// ---------------------------------------------------------- serving

std::shared_ptr<AnnotationStore> QueryFixtureStore(const std::string& name) {
  auto store_or = AnnotationStore::Open(FreshDir(name));
  EXPECT_TRUE(store_or.ok());
  auto store = *store_or;
  // Two segments so every query exercises cross-segment aggregation.
  SegmentBuilder first;
  first.Add("braf", 0, 0, 0, Posting{1, 0, 0, 4});
  first.Add("braf", 0, 0, 1, Posting{1, 0, 0, 4});
  first.Add("braf", 0, 0, 0, Posting{2, 1, 5, 9});
  first.Add("aspirin", 0, 1, 0, Posting{1, 0, 10, 17});
  first.AddCorpusStats(0, 2, 10, 200);
  EXPECT_TRUE(store->Append(std::move(first)).ok());
  SegmentBuilder second;
  second.Add("braf", 0, 0, 0, Posting{3, 0, 2, 6});
  second.Add("brca1", 0, 0, 1, Posting{3, 0, 12, 17});
  second.Add("melanoma", 0, 2, 1, Posting{1, 0, 20, 28});
  second.AddCorpusStats(0, 1, 5, 80);
  EXPECT_TRUE(store->Append(std::move(second)).ok());
  return store;
}

TEST(QueryEngineTest, LookupAggregatesAcrossSegments) {
  serve::QueryEngine engine(QueryFixtureStore("qe_lookup"));
  auto result = engine.Lookup("braf", {}, /*max_postings=*/10);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.count, 4u);
  EXPECT_EQ(result.docs, 3u);
  EXPECT_EQ(result.per_corpus[0], 4u);
  EXPECT_EQ(result.postings.size(), 4u);

  serve::QueryFilter dict_only;
  dict_only.method = 0;
  EXPECT_EQ(engine.Lookup("braf", dict_only).count, 3u);
  EXPECT_FALSE(engine.Lookup("nonexistent").found);
}

TEST(QueryEngineTest, PrefixScanDeduplicatesSorted) {
  serve::QueryEngine engine(QueryFixtureStore("qe_prefix"));
  EXPECT_EQ(engine.PrefixScan("br"),
            (std::vector<std::string>{"braf", "brca1"}));
  EXPECT_EQ(engine.PrefixScan("br", 1),
            (std::vector<std::string>{"braf"}));
  EXPECT_TRUE(engine.PrefixScan("zz").empty());
}

TEST(QueryEngineTest, FrequencyMatchesAnalyticsFormula) {
  serve::QueryEngine engine(QueryFixtureStore("qe_freq"));
  auto genes_dict = engine.CorpusFrequency(0, 0, 0);
  EXPECT_EQ(genes_dict.distinct_names, 1u);  // braf
  EXPECT_EQ(genes_dict.annotations, 3u);
  EXPECT_EQ(genes_dict.sentences, 15u);
  EXPECT_DOUBLE_EQ(genes_dict.per_1000_sentences, 1000.0 * 3.0 / 15.0);
  auto genes_all = engine.CorpusFrequency(0, 0);
  EXPECT_EQ(genes_all.distinct_names, 2u);  // braf + brca1, union
  EXPECT_EQ(genes_all.annotations, 5u);
  // Per-method division first, then the sum — analytics evaluation order.
  EXPECT_DOUBLE_EQ(genes_all.per_1000_sentences,
                   1000.0 * 3.0 / 15.0 + 1000.0 * 2.0 / 15.0);
  EXPECT_EQ(engine.CorpusFrequency(-1, 0).annotations, 0u);
}

TEST(QueryEngineTest, TopKDeterministicOrder) {
  serve::QueryEngine engine(QueryFixtureStore("qe_topk"));
  auto top = engine.TopK(10);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].name, "braf");
  EXPECT_EQ(top[0].count, 4u);
  // Ties (count 1) break by name.
  EXPECT_EQ(top[1].name, "aspirin");
  EXPECT_EQ(top[2].name, "brca1");
  EXPECT_EQ(top[3].name, "melanoma");
  EXPECT_EQ(engine.TopK(2).size(), 2u);
}

TEST(QueryEngineTest, CoOccurrenceDocAndSentenceLevel) {
  serve::QueryEngine engine(QueryFixtureStore("qe_cooc"));
  // braf doc 1 sentence 0; aspirin doc 1 sentence 0 — co-occur both ways.
  auto result = engine.CoOccurrence("braf", "aspirin");
  EXPECT_EQ(result.docs, 1u);
  EXPECT_EQ(result.sentences, 1u);
  // braf and melanoma share doc 1 but melanoma has no postings in braf's
  // sentences beyond sentence 0 — same sentence there, still 1/1.
  auto none = engine.CoOccurrence("braf", "nonexistent");
  EXPECT_EQ(none.docs, 0u);
  EXPECT_EQ(none.sentences, 0u);
}

TEST(QueryEngineTest, ServingIndexFastPathMatchesBruteForceWalk) {
  // Randomized store; the engine's index-backed answers must be
  // bit-identical to a brute-force walk over the snapshot's segments
  // (the pre-index reference semantics).
  auto store_or = AnnotationStore::Open(FreshDir("qe_parity"));
  ASSERT_TRUE(store_or.ok());
  auto store = *store_or;
  Rng rng(0x9a71);
  std::vector<std::string> names;
  for (int n = 0; n < 30; ++n) names.push_back("term" + std::to_string(n));
  for (int s = 0; s < 5; ++s) {
    SegmentBuilder builder;
    size_t adds = 20 + rng.Uniform(30);
    for (size_t a = 0; a < adds; ++a) {
      builder.Add(names[rng.Uniform(names.size())],
                  static_cast<uint8_t>(rng.Uniform(3)),
                  static_cast<uint8_t>(rng.Uniform(3)),
                  static_cast<uint8_t>(rng.Uniform(2)),
                  Posting{rng.Uniform(40), static_cast<uint32_t>(rng.Uniform(6)),
                          static_cast<uint32_t>(rng.Uniform(100)),
                          static_cast<uint32_t>(100 + rng.Uniform(100))});
    }
    builder.AddCorpusStats(static_cast<uint8_t>(s % 3), 5, 50, 2000);
    ASSERT_TRUE(store->Append(std::move(builder)).ok());
  }

  serve::QueryEngine engine(store);
  auto snapshot = engine.snapshot();
  for (const auto& name : names) {
    uint64_t count = 0;
    std::set<std::pair<int, uint64_t>> docs;  // distinct (corpus, doc)
    std::array<uint64_t, 4> per_corpus{};
    bool found = false;
    for (const auto& segment : snapshot.segments) {
      int64_t term = -1;
      const auto& terms = segment->terms();
      auto it = std::lower_bound(terms.begin(), terms.end(), name);
      if (it != terms.end() && *it == name) {
        term = it - terms.begin();
        found = true;
      }
      if (term < 0) continue;
      for (const auto& group :
           segment->GroupsForTerm(static_cast<uint32_t>(term))) {
        count += group.postings.size();
        per_corpus[group.corpus] += group.postings.size();
        for (const auto& posting : group.postings) {
          docs.insert({group.corpus, posting.doc_id});
        }
      }
    }
    auto result = engine.Lookup(name);
    EXPECT_EQ(result.found, found) << name;
    EXPECT_EQ(result.count, count) << name;
    EXPECT_EQ(result.docs, docs.size()) << name;
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(result.per_corpus[c], per_corpus[c]) << name << " corpus " << c;
    }
    // The filtered path (posting walks) must agree with the fast path:
    // per-corpus filtered counts sum to the unfiltered total.
    uint64_t filtered_sum = 0;
    for (int c = 0; c < 3; ++c) {
      serve::QueryFilter filter;
      filter.corpus = c;
      filtered_sum += engine.Lookup(name, filter).count;
    }
    EXPECT_EQ(filtered_sum, count) << name;
  }
}

// ---------------------------------------------------------- concurrency

TEST(StoreConcurrencyTest, QueriesNeverFailDuringAppendsAndCompaction) {
  auto store_or = AnnotationStore::Open(FreshDir("concurrent"));
  ASSERT_TRUE(store_or.ok());
  auto store = *store_or;
  // Seed content so readers have something from the start.
  SegmentBuilder seed;
  seed.Add("braf", 0, 0, 0, Posting{0, 0, 0, 4});
  seed.AddCorpusStats(0, 1, 4, 100);
  ASSERT_TRUE(store->Append(std::move(seed)).ok());

  serve::QueryEngine engine(store);
  BackgroundCompactor compactor(store, /*min_segments=*/3,
                                std::chrono::milliseconds(1));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> anomalies{0};

  std::thread writer([&] {
    for (int i = 1; i <= 40; ++i) {
      SegmentBuilder builder;
      builder.Add("braf", 0, 0, 0,
                  Posting{static_cast<uint64_t>(i), 0, 0, 4});
      builder.Add("gene" + std::to_string(i), 0, 0, 1,
                  Posting{static_cast<uint64_t>(i), 1, 8, 12});
      builder.AddCorpusStats(0, 1, 4, 100);
      if (!store->Append(std::move(builder)).ok()) ++anomalies;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_braf = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto lookup = engine.Lookup("braf");
        // braf only ever gains postings; a count going backwards would
        // mean a query observed a half-installed segment set.
        if (!lookup.found || lookup.count < last_braf) ++anomalies;
        last_braf = lookup.count;
        if (engine.TopK(3).empty()) ++anomalies;
        auto frequency = engine.CorpusFrequency(0, 0, 0);
        if (frequency.sentences == 0) ++anomalies;
        engine.PrefixScan("gene", 5);
        if ((t & 1) != 0) {
          engine.CoOccurrence("braf", "gene7");
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  compactor.Stop();
  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_GT(compactor.compactions_run(), 0u);
  // Everything written is present after the dust settles.
  EXPECT_EQ(engine.Lookup("braf").count, 41u);
  EXPECT_EQ(engine.Lookup("braf").docs, 41u);
}

}  // namespace
}  // namespace wsie::store
