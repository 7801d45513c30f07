// Unit tests of the benchmark's own machinery: the percentile rule, span
// self-time subtraction and the layer table, and the per-seed determinism
// of the Zipf postings generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>

#include "postings_gen.h"
#include "span_trace.h"
#include "stats.h"

namespace wsie::perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, NearestRank) {
  const auto v = OneTo(100);
  EXPECT_EQ(NearestRank(v, 50), 50);
  EXPECT_EQ(NearestRank(v, 90), 90);
  EXPECT_EQ(NearestRank(v, 99), 99);
  EXPECT_EQ(NearestRank(OneTo(1), 99), 1);
  EXPECT_EQ(NearestRank(OneTo(3), 50), 2);
}

TEST(PercentileRule, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_EQ(SamplesBeyond(20, 50), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(PercentileRule, HighestPercentileWithTenBeyond) {
  EXPECT_EQ(TailPercentile(0), 0.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(1000000), 99.0);  // the ladder tops out at p99
}

TEST(PercentileRule, SummaryFallsBackToMaxBelowTwentySamples) {
  auto values = OneTo(19);
  std::reverse(values.begin(), values.end());
  const TimingSummary small = Summarize(values);
  EXPECT_EQ(small.n, 19u);
  EXPECT_EQ(small.median, 10);
  EXPECT_EQ(small.tail_pct, 0.0);
  EXPECT_EQ(small.tail, 19);
  EXPECT_EQ(TailLabel(small), "max");

  const TimingSummary large = Summarize(OneTo(1000));
  EXPECT_EQ(large.median, 500.5);
  EXPECT_EQ(large.tail_pct, 99.0);
  EXPECT_EQ(large.tail, 990);
  EXPECT_EQ(TailLabel(large), "p99");
  EXPECT_EQ(Summarize({}).n, 0u);
}

SpanRecord MakeSpan(const char* name, uint64_t id, uint64_t parent,
                    int64_t start, int64_t end, uint32_t thread = 1) {
  SpanRecord s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<SpanRecord> spans = {
      MakeSpan("root.phase", 1, 0, 0, 100),
      MakeSpan("store.a", 2, 1, 10, 30),
      MakeSpan("store.b", 3, 1, 20, 50),           // overlaps a
      MakeSpan("vec.c", 4, 1, 90, 120, 2),         // other thread, runs past
      MakeSpan("store.grandchild", 5, 2, 12, 15),  // nested under a
      MakeSpan("serve.d", 6, 1, 25, 28),           // inside a and b
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // [10,50) and [90,100) covered
  EXPECT_EQ(self[1], 20 - 3);         // only the grandchild is a's child
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 3);
  EXPECT_EQ(self[5], 3);
}

TEST(SelfTime, DisjointAndMissingParents) {
  const std::vector<SpanRecord> spans = {
      MakeSpan("root.phase", 1, 0, 0, 10),
      MakeSpan("web.a", 2, 1, 0, 3),
      MakeSpan("web.b", 3, 1, 5, 7),
      MakeSpan("web.orphan", 4, 99, 0, 4),  // parent not recorded
      MakeSpan("web.outside", 5, 1, 20, 30),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 10 - 3 - 2);
  EXPECT_EQ(self[3], 4);
  EXPECT_EQ(self[4], 10);
}

TEST(LayerTable, ChargesSelfTimeToLayersAndRootToUnattributed) {
  const std::vector<SpanRecord> spans = {
      MakeSpan("root.phase", 1, 0, 0, 1000000000),
      MakeSpan("store.append", 2, 1, 0, 400000000),
      MakeSpan("vec.build", 3, 2, 100000000, 200000000),
      MakeSpan("root.thread", 4, 1, 500000000, 900000000, 2),
      MakeSpan("serve.submit", 5, 4, 500000000, 800000000, 2),
      MakeSpan("web.elsewhere", 6, 0, 0, 500000000),  // another phase
  };
  LayerTable table = BuildLayerTable(spans, 1);
  EXPECT_DOUBLE_EQ(table.wall_s, 1.0);
  EXPECT_NEAR(table.self_s["store"], 0.3, 1e-12);
  EXPECT_NEAR(table.self_s["vec"], 0.1, 1e-12);
  EXPECT_NEAR(table.self_s["serve"], 0.3, 1e-12);
  EXPECT_EQ(table.self_s.count("web"), 0u);
  // Root self (0.4..0.5 and 0.9..1.0) plus the thread root's 0.1.
  EXPECT_NEAR(table.unattributed_s, 0.3, 1e-12);

  table.Reattribute("store", {{"vec", 0.05}, {"dataflow", 0.05}});
  EXPECT_NEAR(table.self_s["store"], 0.2, 1e-12);
  EXPECT_NEAR(table.self_s["vec"], 0.15, 1e-12);
  EXPECT_NEAR(table.self_s["dataflow"], 0.05, 1e-12);
}

TEST(SpanRecorder, NestsOnOneThreadAndIsOffByDefault) {
  SpanTrace& trace = SpanTrace::Global();
  { Span ignored("web.off"); }
  trace.SetEnabled(true);
  uint64_t outer_id = 0;
  {
    Span outer("root.test", 7);
    outer_id = outer.id();
    Span inner("store.inner");
  }
  trace.SetEnabled(false);
  const auto spans = trace.Drain();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& outer = spans[0].name == "root.test" ? spans[0] : spans[1];
  const SpanRecord& inner = spans[0].name == "root.test" ? spans[1] : spans[0];
  EXPECT_EQ(outer.id, outer_id);
  EXPECT_EQ(inner.parent, outer_id);
  EXPECT_EQ(inner.request, 7u);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
}

std::vector<TypedName> SmallVocabulary() {
  return NormalizedVocabulary({"BRCA1", "TP53", "Il-6", "brca1"},
                              {"Aspirin", "imatinib"},
                              {"Lung cancer", "flu"});
}

TEST(Vocabulary, LowercasesAndDeduplicates) {
  const auto names = SmallVocabulary();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0].name, "brca1");
  EXPECT_EQ(names[2].name, "il-6");
  EXPECT_EQ(names[3].name, "aspirin");
  EXPECT_EQ(names[3].type, 1);
  EXPECT_EQ(names[5].name, "lung cancer");
  EXPECT_EQ(names[5].type, 2);
}

bool SameBatch(const std::vector<GeneratedPosting>& a,
               const std::vector<GeneratedPosting>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].corpus != b[i].corpus ||
        a[i].method != b[i].method || !(a[i].posting == b[i].posting)) {
      return false;
    }
  }
  return true;
}

TEST(PostingsGenerator, SameSeedSameNamesAndBatches) {
  const PostingsGenerator a(SmallVocabulary(), 42, 1.0);
  const PostingsGenerator b(SmallVocabulary(), 42, 1.0);
  ASSERT_EQ(a.names().size(), b.names().size());
  for (size_t i = 0; i < a.names().size(); ++i) {
    EXPECT_EQ(a.names()[i].name, b.names()[i].name);
  }
  // A batch depends only on (seed, index, count), not on call order.
  const auto late = b.Batch(3, 500);
  EXPECT_TRUE(SameBatch(a.Batch(0, 500), b.Batch(0, 500)));
  EXPECT_TRUE(SameBatch(a.Batch(3, 500), late));
  EXPECT_FALSE(SameBatch(a.Batch(0, 500), a.Batch(1, 500)));
}

TEST(PostingsGenerator, SeedChangesTheStream) {
  const PostingsGenerator a(SmallVocabulary(), 1, 1.0);
  const PostingsGenerator b(SmallVocabulary(), 2, 1.0);
  EXPECT_FALSE(SameBatch(a.Batch(0, 500), b.Batch(0, 500)));
}

TEST(PostingsGenerator, ZipfSkewAndDistinctPostings) {
  const PostingsGenerator gen(SmallVocabulary(), 9, 1.0, 5);
  ASSERT_EQ(gen.names().size(), 5u);
  const auto batch = gen.Batch(0, 20000);
  std::vector<uint64_t> per_rank(5, 0);
  for (const auto& p : batch) {
    ASSERT_LT(p.name, 5u);
    ++per_rank[p.name];
  }
  EXPECT_GT(per_rank[0], per_rank[4]);  // rank 0 is the hottest
  std::set<std::tuple<uint32_t, uint8_t, uint8_t, uint64_t, uint32_t,
                      uint32_t>>
      keys;
  for (const auto& p : batch) {
    keys.insert({p.name, p.corpus, p.method, p.posting.doc_id,
                 p.posting.sentence, p.posting.begin});
  }
  EXPECT_EQ(keys.size(), batch.size());
}

TEST(ExpectedCounts, TopKBreaksTiesByName) {
  const std::vector<TypedName> names = {{"b", 0}, {"a", 0}, {"c", 0}};
  std::vector<GeneratedPosting> batch(5);
  batch[0].name = 0;
  batch[1].name = 1;
  batch[2].name = 2;
  batch[3].name = 2;
  batch[4].name = 0;
  ExpectedCounts counts;
  counts.Add(batch);
  EXPECT_EQ(counts.total(), 5u);
  EXPECT_EQ(counts.Count(0), 2u);
  EXPECT_EQ(counts.Count(7), 0u);
  const auto top = counts.TopK(2, names);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "b");  // tie at 2 with "c": name order
  EXPECT_EQ(top[1].first, "c");
}

}  // namespace
}  // namespace wsie::perfbench
