#include <atomic>
#include <span>

#include <gtest/gtest.h>

#include "dataflow/executor.h"
#include "dataflow/fault_injection.h"
#include "dataflow/meteor.h"
#include "dataflow/operators_base.h"
#include "dataflow/optimizer.h"
#include "dataflow/plan.h"
#include "dataflow/value.h"

namespace wsie::dataflow {
namespace {

// ------------------------------------------------------------ Value

TEST(ValueTest, ScalarTypes) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(3.14).is_double());
  EXPECT_TRUE(Value("str").is_string());
  EXPECT_EQ(Value(42).AsInt(), 42);
  EXPECT_EQ(Value("x").AsString(), "x");
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_EQ(Value(3.7).AsInt(), 3);
  EXPECT_DOUBLE_EQ(Value(3).AsDouble(), 3.0);
  EXPECT_EQ(Value("x").AsInt(-1), -1);
}

TEST(ValueTest, ObjectFields) {
  Value v;
  v.SetField("id", 7);
  v.SetField("name", "doc");
  EXPECT_TRUE(v.HasField("id"));
  EXPECT_FALSE(v.HasField("missing"));
  EXPECT_EQ(v.Field("id").AsInt(), 7);
  EXPECT_TRUE(v.Field("missing").is_null());
}

TEST(ValueTest, Arrays) {
  Value v(Value::Array{Value(1), Value(2)});
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.AsArray().size(), 2u);
  v.MutableArray().push_back(Value(3));
  EXPECT_EQ(v.AsArray().size(), 3u);
}

TEST(ValueTest, ByteSizeGrowsWithContent) {
  Value small;
  small.SetField("text", "x");
  Value big;
  big.SetField("text", std::string(1000, 'x'));
  EXPECT_GT(big.ByteSize(), small.ByteSize() + 900);
}

TEST(ValueTest, ToJson) {
  Value v;
  v.SetField("id", 1);
  v.SetField("tags", Value(Value::Array{Value("a"), Value("b")}));
  EXPECT_EQ(v.ToJson(), "{\"id\":1,\"tags\":[\"a\",\"b\"]}");
  Value escaped("say \"hi\"");
  EXPECT_EQ(escaped.ToJson(), "\"say \\\"hi\\\"\"");
}

// ------------------------------------------------------------ Plan

TEST(PlanTest, BuildsDag) {
  Plan plan;
  int src = plan.AddSource("in");
  auto op = std::make_shared<MapOperator>("id", [](const Record& r) { return r; });
  int node = plan.AddNode(op, {src});
  plan.MarkSink(node, "out");
  EXPECT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.num_operators(), 1u);
  EXPECT_TRUE(plan.nodes()[0].is_source());
  EXPECT_EQ(plan.nodes()[1].sink_name, "out");
}

TEST(PlanTest, ConsumersComputed) {
  Plan plan;
  int src = plan.AddSource("in");
  auto op = std::make_shared<MapOperator>("id", [](const Record& r) { return r; });
  int a = plan.AddNode(op, {src});
  int b = plan.AddNode(op, {src});
  plan.AddNode(op, {a, b});
  auto consumers = plan.Consumers();
  EXPECT_EQ(consumers[static_cast<size_t>(src)].size(), 2u);
  EXPECT_EQ(consumers[static_cast<size_t>(a)].size(), 1u);
}

// ------------------------------------------------------------ Base ops

Dataset MakeNumbers(int n) {
  Dataset data;
  for (int i = 0; i < n; ++i) {
    Record r;
    r.SetField("x", i);
    data.push_back(std::move(r));
  }
  return data;
}

TEST(BaseOperatorTest, Filter) {
  FilterOperator op("even", [](const Record& r) {
    return r.Field("x").AsInt() % 2 == 0;
  });
  Dataset out;
  ASSERT_TRUE(op.ProcessBatch(MakeNumbers(10), &out).ok());
  EXPECT_EQ(out.size(), 5u);
}

TEST(BaseOperatorTest, Map) {
  MapOperator op("double", [](const Record& r) {
    Record copy = r;
    copy.SetField("x", r.Field("x").AsInt() * 2);
    return copy;
  });
  Dataset out;
  ASSERT_TRUE(op.ProcessBatch(MakeNumbers(3), &out).ok());
  EXPECT_EQ(out[2].Field("x").AsInt(), 4);
}

TEST(BaseOperatorTest, FlatMap) {
  FlatMapOperator op("dup", [](const Record& r, Dataset* out) {
    out->push_back(r);
    out->push_back(r);
  });
  Dataset out;
  ASSERT_TRUE(op.ProcessBatch(MakeNumbers(3), &out).ok());
  EXPECT_EQ(out.size(), 6u);
}

TEST(BaseOperatorTest, Projection) {
  ProjectionOperator op("proj", {"x"});
  Dataset in = MakeNumbers(1);
  in[0].SetField("extra", "drop me");
  Dataset out;
  ASSERT_TRUE(op.ProcessBatch(in, &out).ok());
  EXPECT_TRUE(out[0].HasField("x"));
  EXPECT_FALSE(out[0].HasField("extra"));
}

// ------------------------------------------------------------ Optimizer

OperatorPtr CheapFilter() {
  OperatorTraits t;
  t.reads = {"x"};
  t.selectivity = 0.1;
  t.cost_per_record = 0.5;
  return std::make_shared<FilterOperator>(
      "cheap_filter",
      [](const Record& r) { return r.Field("x").AsInt() % 10 == 0; }, t);
}

OperatorPtr ExpensiveMap() {
  OperatorTraits t;
  t.reads = {"x"};
  t.writes = {"y"};
  t.cost_per_record = 100.0;
  return std::make_shared<MapOperator>(
      "expensive_map",
      [](const Record& r) {
        Record copy = r;
        copy.SetField("y", r.Field("x").AsInt() + 1);
        return copy;
      },
      t);
}

TEST(OptimizerTest, CommutesChecksFieldSets) {
  OperatorTraits a, b;
  a.reads = {"x"};
  b.reads = {"x"};
  EXPECT_TRUE(Optimizer::Commutes(a, b));
  b.writes = {"x"};  // b writes what a reads
  EXPECT_FALSE(Optimizer::Commutes(a, b));
  b.writes = {"y"};
  EXPECT_TRUE(Optimizer::Commutes(a, b));
  a.writes = {"y"};  // both write y
  EXPECT_FALSE(Optimizer::Commutes(a, b));
}

TEST(OptimizerTest, NonRecordAtATimeNeverCommutes) {
  OperatorTraits a, b;
  b.record_at_a_time = false;
  EXPECT_FALSE(Optimizer::Commutes(a, b));
}

TEST(OptimizerTest, MovesSelectiveFilterEarlier) {
  Plan plan;
  int src = plan.AddSource("in");
  int map = plan.AddNode(ExpensiveMap(), {src});
  int filter = plan.AddNode(CheapFilter(), {map});
  plan.MarkSink(filter, "out");

  Optimizer optimizer;
  auto report = optimizer.Optimize(&plan);
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].moved_earlier, "cheap_filter");
  EXPECT_LT(report.estimated_cost_after, report.estimated_cost_before);
  // Operator order in the chain is now filter -> map.
  EXPECT_EQ(plan.nodes()[1].op->name(), "cheap_filter");
  EXPECT_EQ(plan.nodes()[2].op->name(), "expensive_map");
}

TEST(OptimizerTest, RespectsDataDependencies) {
  // Filter reads the field the map writes: no reorder allowed.
  OperatorTraits ft;
  ft.reads = {"y"};
  ft.selectivity = 0.1;
  ft.cost_per_record = 0.5;
  auto dependent_filter = std::make_shared<FilterOperator>(
      "dep_filter", [](const Record& r) { return r.HasField("y"); }, ft);

  Plan plan;
  int src = plan.AddSource("in");
  int map = plan.AddNode(ExpensiveMap(), {src});
  int filter = plan.AddNode(dependent_filter, {map});
  plan.MarkSink(filter, "out");

  Optimizer optimizer;
  auto report = optimizer.Optimize(&plan);
  EXPECT_TRUE(report.steps.empty());
  EXPECT_EQ(plan.nodes()[1].op->name(), "expensive_map");
}

TEST(OptimizerTest, OptimizedPlanProducesSameResult) {
  Plan plan;
  int src = plan.AddSource("in");
  int map = plan.AddNode(ExpensiveMap(), {src});
  int filter = plan.AddNode(CheapFilter(), {map});
  plan.MarkSink(filter, "out");

  Executor executor({/*dop=*/2, 0, 8});
  std::map<std::string, Dataset> sources{{"in", MakeNumbers(100)}};
  auto before = executor.Run(plan, sources);
  ASSERT_TRUE(before.ok());

  Optimizer optimizer;
  optimizer.Optimize(&plan);
  auto after = executor.Run(plan, sources);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->sink_outputs.at("out").size(),
            after->sink_outputs.at("out").size());
}

TEST(OptimizerTest, ChainCostEstimate) {
  OperatorTraits cheap_selective;
  cheap_selective.selectivity = 0.1;
  cheap_selective.cost_per_record = 1.0;
  OperatorTraits expensive;
  expensive.cost_per_record = 10.0;
  double filter_first =
      Optimizer::EstimateChainCost({cheap_selective, expensive}, 100);
  double map_first =
      Optimizer::EstimateChainCost({expensive, cheap_selective}, 100);
  EXPECT_LT(filter_first, map_first);
}

// ------------------------------------------------------------ Executor

TEST(ExecutorTest, RunsLinearPlan) {
  Plan plan;
  int src = plan.AddSource("in");
  int node = plan.AddNode(ExpensiveMap(), {src});
  plan.MarkSink(node, "out");
  Executor executor({/*dop=*/4, 0, 4});
  auto result = executor.Run(plan, {{"in", MakeNumbers(100)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sink_outputs.at("out").size(), 100u);
  ASSERT_EQ(result->operator_stats.size(), 1u);
  EXPECT_EQ(result->operator_stats[0].records_in, 100u);
  EXPECT_EQ(result->operator_stats[0].records_out, 100u);
  EXPECT_GT(result->operator_stats[0].bytes_out, 0u);
}

TEST(ExecutorTest, UnionOfInputs) {
  Plan plan;
  int a = plan.AddSource("a");
  int b = plan.AddSource("b");
  auto id = std::make_shared<MapOperator>("id", [](const Record& r) { return r; });
  int node = plan.AddNode(id, {a, b});
  plan.MarkSink(node, "out");
  Executor executor;
  auto result =
      executor.Run(plan, {{"a", MakeNumbers(10)}, {"b", MakeNumbers(5)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sink_outputs.at("out").size(), 15u);
}

TEST(ExecutorTest, DiamondTopology) {
  // One source feeding two branches that re-join: the Fig. 2 shape.
  Plan plan;
  int src = plan.AddSource("in");
  auto inc = [](const char* field) {
    return std::make_shared<MapOperator>(field, [field](const Record& r) {
      Record copy = r;
      copy.SetField(field, 1);
      return copy;
    });
  };
  int left = plan.AddNode(inc("left"), {src});
  int right = plan.AddNode(inc("right"), {src});
  auto join = std::make_shared<MapOperator>("id", [](const Record& r) { return r; });
  int tail = plan.AddNode(join, {left, right});
  plan.MarkSink(tail, "out");
  Executor executor;
  auto result = executor.Run(plan, {{"in", MakeNumbers(10)}});
  ASSERT_TRUE(result.ok());
  const Dataset& out = result->sink_outputs.at("out");
  EXPECT_EQ(out.size(), 20u);  // one record per branch
  size_t left_count = 0, right_count = 0;
  for (const Record& r : out) {
    if (r.HasField("left")) ++left_count;
    if (r.HasField("right")) ++right_count;
  }
  EXPECT_EQ(left_count, 10u);
  EXPECT_EQ(right_count, 10u);
}

TEST(ExecutorTest, MissingSourceIsError) {
  Plan plan;
  plan.AddSource("in");
  Executor executor;
  auto result = executor.Run(plan, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ExecutorTest, OperatorErrorPropagates) {
  class FailingOp : public Operator {
   public:
    std::string name() const override { return "fail"; }
    Status ProcessBatch(const Dataset&, Dataset*) const override {
      return Status::Aborted("tool crashed on pathological input");
    }
  };
  Plan plan;
  int src = plan.AddSource("in");
  plan.MarkSink(plan.AddNode(std::make_shared<FailingOp>(), {src}), "out");
  Executor executor;
  auto result = executor.Run(plan, {{"in", MakeNumbers(10)}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
}

class HungryOp : public Operator {
 public:
  explicit HungryOp(size_t bytes) : bytes_(bytes) {}
  std::string name() const override { return "hungry"; }
  size_t MemoryBytesPerWorker() const override { return bytes_; }
  Status ProcessBatch(const Dataset& in, Dataset* out) const override {
    out->insert(out->end(), in.begin(), in.end());
    return Status::OK();
  }

 private:
  size_t bytes_;
};

TEST(ExecutorTest, MemoryAdmissionSingleOperator) {
  Plan plan;
  int src = plan.AddSource("in");
  plan.MarkSink(plan.AddNode(std::make_shared<HungryOp>(30ull << 30), {src}),
                "out");
  ExecutorConfig config;
  config.memory_per_worker_budget = 24ull << 30;  // the paper's 24 GB nodes
  Executor executor(config);
  auto result = executor.Run(plan, {{"in", MakeNumbers(1)}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExecutorTest, MemoryAdmissionFlowSum) {
  // Each operator fits alone, but the co-resident flow does not (the
  // Sect. 4.2 war story).
  Plan plan;
  int src = plan.AddSource("in");
  int a = plan.AddNode(std::make_shared<HungryOp>(15ull << 30), {src});
  int b = plan.AddNode(std::make_shared<HungryOp>(15ull << 30), {a});
  plan.MarkSink(b, "out");
  ExecutorConfig config;
  config.memory_per_worker_budget = 24ull << 30;
  Executor executor(config);
  auto result = executor.Run(plan, {{"in", MakeNumbers(1)}});
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("split the flow"),
            std::string::npos);
}

TEST(ExecutorTest, MemoryCheckDisabledByDefault) {
  Plan plan;
  int src = plan.AddSource("in");
  plan.MarkSink(plan.AddNode(std::make_shared<HungryOp>(60ull << 30), {src}),
                "out");
  Executor executor;  // budget 0 = unchecked
  EXPECT_TRUE(executor.Run(plan, {{"in", MakeNumbers(1)}}).ok());
}

TEST(ExecutorTest, StartupCostTimedSeparately) {
  class SlowOpenOp : public Operator {
   public:
    std::string name() const override { return "slow_open"; }
    Status Open() override {
      volatile double x = 0;
      for (int i = 0; i < 2000000; ++i) x = x + i;
      (void)x;
      return Status::OK();
    }
    Status ProcessBatch(const Dataset& in, Dataset* out) const override {
      out->insert(out->end(), in.begin(), in.end());
      return Status::OK();
    }
  };
  Plan plan;
  int src = plan.AddSource("in");
  plan.MarkSink(plan.AddNode(std::make_shared<SlowOpenOp>(), {src}), "out");
  Executor executor;
  auto result = executor.Run(plan, {{"in", MakeNumbers(4)}});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->operator_stats[0].open_seconds, 0.0);
}

// ------------------------------------------------------------ Fusion groups

OperatorPtr IdOp(const char* name) {
  return std::make_shared<MapOperator>(name,
                                       [](const Record& r) { return r; });
}

OperatorPtr BreakerOp(const char* name) {
  OperatorTraits t;
  t.record_at_a_time = false;
  return std::make_shared<MapOperator>(
      name, [](const Record& r) { return r; }, t);
}

TEST(OptimizerTest, ComputeFusionGroupsFusesRecordChains) {
  Plan plan;
  int src = plan.AddSource("in");
  int a = plan.AddNode(IdOp("a"), {src});
  int b = plan.AddNode(IdOp("b"), {a});
  int c = plan.AddNode(IdOp("c"), {b});
  plan.MarkSink(c, "out");
  auto groups = Optimizer::ComputeFusionGroups(plan);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_TRUE(groups[0].fused());
  EXPECT_EQ(groups[0].nodes, (std::vector<int>{a, b, c}));

  // The unfused toggle: every operator is its own stage.
  auto unfused = Optimizer::ComputeFusionGroups(plan, false);
  ASSERT_EQ(unfused.size(), 3u);
  for (const auto& g : unfused) EXPECT_FALSE(g.fused());
}

TEST(OptimizerTest, FusionStopsAtPipelineBreakers) {
  // a -> breaker -> c: the non-record-at-a-time operator splits the chain.
  Plan plan;
  int src = plan.AddSource("in");
  int a = plan.AddNode(IdOp("a"), {src});
  int brk = plan.AddNode(BreakerOp("agg"), {a});
  int c = plan.AddNode(IdOp("c"), {brk});
  plan.MarkSink(c, "out");
  auto groups = Optimizer::ComputeFusionGroups(plan);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].nodes, (std::vector<int>{a}));
  EXPECT_EQ(groups[1].nodes, (std::vector<int>{brk}));
  EXPECT_EQ(groups[2].nodes, (std::vector<int>{c}));
}

TEST(OptimizerTest, FusionStopsAtFanOutAndUnion) {
  // Diamond: the fan-out point and the multi-input join both break stages.
  Plan plan;
  int src = plan.AddSource("in");
  int a = plan.AddNode(IdOp("a"), {src});
  int left = plan.AddNode(IdOp("l"), {a});
  int right = plan.AddNode(IdOp("r"), {a});
  int join = plan.AddNode(IdOp("j"), {left, right});
  plan.MarkSink(join, "out");
  auto groups = Optimizer::ComputeFusionGroups(plan);
  ASSERT_EQ(groups.size(), 4u);
  for (const auto& g : groups) EXPECT_EQ(g.nodes.size(), 1u);
}

TEST(OptimizerTest, FusionStopsAtInteriorSink) {
  // A sink must materialize, so the chain breaks after it even though the
  // consumer is record-at-a-time.
  Plan plan;
  int src = plan.AddSource("in");
  int a = plan.AddNode(IdOp("a"), {src});
  int b = plan.AddNode(IdOp("b"), {a});
  plan.MarkSink(a, "intermediate");
  plan.MarkSink(b, "out");
  auto groups = Optimizer::ComputeFusionGroups(plan);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].nodes, (std::vector<int>{a}));
  EXPECT_EQ(groups[1].nodes, (std::vector<int>{b}));
}

// ------------------------------------------------- Morsel engine semantics

Plan MakeChainPlan() {
  // dup -> keep x%3!=0 -> square: exercises flat-map fan-out, filtering,
  // and rewriting inside one fused stage.
  Plan plan;
  int src = plan.AddSource("in");
  int dup = plan.AddNode(std::make_shared<FlatMapOperator>(
                             "dup",
                             [](const Record& r, Dataset* out) {
                               out->push_back(r);
                               Record copy = r;
                               copy.SetField("dup", true);
                               out->push_back(std::move(copy));
                             }),
                         {src});
  int keep = plan.AddNode(std::make_shared<FilterOperator>(
                              "keep",
                              [](const Record& r) {
                                return r.Field("x").AsInt() % 3 != 0;
                              }),
                          {dup});
  int square = plan.AddNode(std::make_shared<MapOperator>(
                                "square",
                                [](const Record& r) {
                                  Record copy = r;
                                  int64_t x = r.Field("x").AsInt();
                                  copy.SetField("sq", x * x);
                                  return copy;
                                }),
                            {keep});
  plan.MarkSink(square, "out");
  return plan;
}

std::string SinkJson(const ExecutorConfig& config, const Plan& plan,
                     const std::map<std::string, Dataset>& sources,
                     const char* sink = "out") {
  Executor executor(config);
  auto result = executor.Run(plan, sources);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "";
  std::string json;
  for (const Record& r : result->sink_outputs.at(sink)) {
    json += r.ToJson();
    json += '\n';
  }
  return json;
}

TEST(ExecutorTest, DeterministicAcrossDopAndFusion) {
  Plan plan = MakeChainPlan();
  std::map<std::string, Dataset> sources{{"in", MakeNumbers(100)}};

  ExecutorConfig base;
  base.dop = 1;
  base.morsel_records = 4;
  std::string reference = SinkJson(base, plan, sources);
  ASSERT_FALSE(reference.empty());

  for (size_t dop : {1ul, 8ul}) {
    for (bool fused : {true, false}) {
      for (size_t morsel : {1ul, 4ul, 64ul}) {
        ExecutorConfig config;
        config.dop = dop;
        config.fuse_pipelines = fused;
        config.morsel_records = morsel;
        EXPECT_EQ(SinkJson(config, plan, sources), reference)
            << "dop=" << dop << " fused=" << fused << " morsel=" << morsel;
      }
    }
  }
}

TEST(ExecutorTest, FusedStageStatsReported) {
  Plan plan = MakeChainPlan();
  std::map<std::string, Dataset> sources{{"in", MakeNumbers(100)}};

  ExecutorConfig fused;
  fused.dop = 2;
  fused.morsel_records = 8;
  Executor executor(fused);
  auto result = executor.Run(plan, sources);
  ASSERT_TRUE(result.ok());
  // One fused stage covering all three operators.
  ASSERT_EQ(result->stage_stats.size(), 1u);
  const StageRunStats& stage = result->stage_stats[0];
  EXPECT_TRUE(stage.fused);
  EXPECT_EQ(stage.operators, 3u);
  EXPECT_EQ(stage.name, "dup+keep+square");
  EXPECT_EQ(stage.morsels, 13u);  // ceil(100 / 8)
  EXPECT_EQ(stage.records_in, 100u);
  EXPECT_GT(stage.records_out, 0u);
  // Interior outputs streamed, only the tail materialized.
  EXPECT_GT(stage.bytes_not_materialized, 0u);
  EXPECT_GT(stage.bytes_materialized, 0u);
  EXPECT_EQ(result->total_bytes_streamed, stage.bytes_not_materialized);
  EXPECT_EQ(result->total_bytes_materialized, stage.bytes_materialized);
  // The per-operator contract still holds.
  ASSERT_EQ(result->operator_stats.size(), 3u);
  EXPECT_EQ(result->operator_stats[0].records_in, 100u);
  EXPECT_EQ(result->operator_stats[0].records_out, 200u);
  EXPECT_EQ(result->operator_stats[0].morsels, 13u);
  EXPECT_GT(result->operator_stats[2].bytes_out, 0u);

  ExecutorConfig unfused = fused;
  unfused.fuse_pipelines = false;
  Executor unfused_executor(unfused);
  auto unfused_result = unfused_executor.Run(plan, sources);
  ASSERT_TRUE(unfused_result.ok());
  ASSERT_EQ(unfused_result->stage_stats.size(), 3u);
  for (const StageRunStats& s : unfused_result->stage_stats) {
    EXPECT_FALSE(s.fused);
    EXPECT_EQ(s.operators, 1u);
    EXPECT_EQ(s.bytes_not_materialized, 0u);
  }
  EXPECT_EQ(unfused_result->total_bytes_streamed, 0u);
  // Everything materializes without fusion.
  EXPECT_GT(unfused_result->total_bytes_materialized,
            result->total_bytes_materialized);
}

TEST(ExecutorTest, ErrorStopsRemainingMorsels) {
  class CountingFailOp : public Operator {
   public:
    std::string name() const override { return "counting_fail"; }
    Status ProcessSpan(std::span<const Record>, Dataset*) const override {
      calls.fetch_add(1, std::memory_order_relaxed);
      return Status::Aborted("tool crashed on pathological input");
    }
    mutable std::atomic<uint64_t> calls{0};
  };
  auto op = std::make_shared<CountingFailOp>();
  Plan plan;
  int src = plan.AddSource("in");
  plan.MarkSink(plan.AddNode(op, {src}), "out");

  ExecutorConfig config;
  config.dop = 2;
  config.morsel_records = 4;  // 400 records -> 100 morsels
  Executor executor(config);
  auto result = executor.Run(plan, {{"in", MakeNumbers(400)}});
  ASSERT_FALSE(result.ok());
  // The first failing morsel's Status surfaces...
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  // ...and unclaimed morsels are never scheduled: only morsels already in
  // flight when the failure hit can have run (bounded by the worker count,
  // not the 100 morsels of input).
  EXPECT_LE(op->calls.load(), 4u);
}

// ------------------------------------------------------------ Open cache

class CountingOpenOp : public Operator {
 public:
  std::string name() const override { return "counting_open"; }
  Status Open() override {
    opens.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  void Close() override { closes.fetch_add(1, std::memory_order_relaxed); }
  Status ProcessSpan(std::span<const Record> in,
                     Dataset* out) const override {
    out->insert(out->end(), in.begin(), in.end());
    return Status::OK();
  }
  std::atomic<int> opens{0};
  std::atomic<int> closes{0};
};

TEST(ExecutorTest, OpenRunsOnceAcrossRuns) {
  auto op = std::make_shared<CountingOpenOp>();
  Plan plan;
  int src = plan.AddSource("in");
  plan.MarkSink(plan.AddNode(op, {src}), "out");
  std::map<std::string, Dataset> sources{{"in", MakeNumbers(8)}};

  Executor executor;
  auto first = executor.Run(plan, sources);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(op->opens.load(), 1);
  EXPECT_EQ(first->open_cold, 1u);
  EXPECT_EQ(first->open_cached, 0u);
  EXPECT_FALSE(first->operator_stats[0].open_cached);

  auto second = executor.Run(plan, sources);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(op->opens.load(), 1);  // exactly once across two Run() calls
  EXPECT_EQ(second->open_cold, 0u);
  EXPECT_EQ(second->open_cached, 1u);
  EXPECT_TRUE(second->operator_stats[0].open_cached);

  // The cache is process-wide, not per-Executor.
  Executor another;
  auto third = another.Run(plan, sources);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(op->opens.load(), 1);

  // Clearing closes the cached operator and forces a cold re-open.
  Executor::ClearOpenCache();
  EXPECT_EQ(op->closes.load(), 1);
  auto fourth = executor.Run(plan, sources);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(op->opens.load(), 2);
  EXPECT_EQ(fourth->open_cold, 1u);
  Executor::ClearOpenCache();
}

TEST(ExecutorTest, OpenCacheDisabledOpensPerRun) {
  auto op = std::make_shared<CountingOpenOp>();
  Plan plan;
  int src = plan.AddSource("in");
  plan.MarkSink(plan.AddNode(op, {src}), "out");
  std::map<std::string, Dataset> sources{{"in", MakeNumbers(8)}};

  ExecutorConfig config;
  config.cache_opens = false;
  Executor executor(config);
  ASSERT_TRUE(executor.Run(plan, sources).ok());
  ASSERT_TRUE(executor.Run(plan, sources).ok());
  EXPECT_EQ(op->opens.load(), 2);  // seed behavior: open (and close) per run
  EXPECT_EQ(op->closes.load(), 2);
}

TEST(ExecutorTest, FailedOpenIsNotCached) {
  class FlakyOpenOp : public CountingOpenOp {
   public:
    Status Open() override {
      if (opens.fetch_add(1, std::memory_order_relaxed) == 0) {
        return Status::Aborted("transient start-up failure");
      }
      return Status::OK();
    }
  };
  auto op = std::make_shared<FlakyOpenOp>();
  Plan plan;
  int src = plan.AddSource("in");
  plan.MarkSink(plan.AddNode(op, {src}), "out");
  std::map<std::string, Dataset> sources{{"in", MakeNumbers(4)}};

  Executor executor;
  auto first = executor.Run(plan, sources);
  EXPECT_FALSE(first.ok());
  auto second = executor.Run(plan, sources);  // retried, not poisoned
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(op->opens.load(), 2);
  Executor::ClearOpenCache();
}

// ------------------------------------------------------ Shared thread pool

TEST(ExecutorTest, SharedThreadPoolAcrossExecutors) {
  auto pool = std::make_shared<ThreadPool>(4);
  Plan plan = MakeChainPlan();
  std::map<std::string, Dataset> sources{{"in", MakeNumbers(50)}};

  ExecutorConfig config;
  config.dop = 4;
  config.pool = pool;
  Executor first(config);
  Executor second(config);
  auto a = first.Run(plan, sources);
  auto b = second.Run(plan, sources);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->sink_outputs.at("out").size(), b->sink_outputs.at("out").size());
  EXPECT_EQ(pool->num_threads(), 4u);
}

// ------------------------------------------------ Task retry & fault ops

Plan MakeFaultyChainPlan(std::shared_ptr<FaultInjectingOperator>* fault_op,
                         const FaultInjectionOptions& options) {
  // Same shape as MakeChainPlan, but the middle of the chain injects faults.
  Plan plan;
  int src = plan.AddSource("in");
  int dup = plan.AddNode(std::make_shared<FlatMapOperator>(
                             "dup",
                             [](const Record& r, Dataset* out) {
                               out->push_back(r);
                               Record copy = r;
                               copy.SetField("dup", true);
                               out->push_back(std::move(copy));
                             }),
                         {src});
  auto faulty = std::make_shared<FaultInjectingOperator>(
      std::make_shared<FilterOperator>(
          "keep",
          [](const Record& r) { return r.Field("x").AsInt() % 3 != 0; }),
      options);
  if (fault_op != nullptr) *fault_op = faulty;
  int keep = plan.AddNode(faulty, {dup});
  int square = plan.AddNode(std::make_shared<MapOperator>(
                                "square",
                                [](const Record& r) {
                                  Record copy = r;
                                  int64_t x = r.Field("x").AsInt();
                                  copy.SetField("sq", x * x);
                                  return copy;
                                }),
                            {keep});
  plan.MarkSink(square, "out");
  return plan;
}

TEST(ExecutorTest, TaskRetryRecoversFromTransientFaults) {
  std::map<std::string, Dataset> sources{{"in", MakeNumbers(200)}};

  // Reference output from the fault-free plan.
  ExecutorConfig base;
  base.dop = 1;
  base.morsel_records = 8;
  std::string reference = SinkJson(base, MakeChainPlan(), sources);
  ASSERT_FALSE(reference.empty());

  FaultInjectionOptions options;
  options.seed = 11;
  options.transient_prob = 0.10;
  std::shared_ptr<FaultInjectingOperator> fault_op;
  Plan plan = MakeFaultyChainPlan(&fault_op, options);

  for (size_t dop : {1ul, 4ul}) {
    for (bool fused : {true, false}) {
      ExecutorConfig config;
      config.dop = dop;
      config.morsel_records = 8;
      config.fuse_pipelines = fused;
      config.max_task_retries = 3;
      Executor executor(config);
      auto result = executor.Run(plan, sources);
      ASSERT_TRUE(result.ok())
          << "dop=" << dop << " fused=" << fused << ": "
          << result.status().ToString();
      std::string json;
      for (const Record& r : result->sink_outputs.at("out")) {
        json += r.ToJson();
        json += '\n';
      }
      EXPECT_EQ(json, reference)
          << "retried run must lose zero records (dop=" << dop
          << " fused=" << fused << ")";
      EXPECT_GT(result->task_retries, 0u)
          << "faults at 10% over 25 morsels should have triggered retries";
    }
  }
  EXPECT_GT(fault_op->transient_failures(), 0u);
  EXPECT_EQ(fault_op->permanent_failures(), 0u);
}

TEST(ExecutorTest, TransientFaultsFailWithoutRetryBudget) {
  FaultInjectionOptions options;
  options.seed = 11;
  options.transient_prob = 0.25;
  Plan plan = MakeFaultyChainPlan(nullptr, options);
  ExecutorConfig config;
  config.dop = 2;
  config.morsel_records = 8;
  config.max_task_retries = 0;  // seed behavior: first failure is fatal
  Executor executor(config);
  auto result = executor.Run(plan, {{"in", MakeNumbers(200)}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(result.status().IsRetryable());
}

TEST(ExecutorTest, PermanentFaultsExhaustRetryBudget) {
  FaultInjectionOptions options;
  options.seed = 5;
  options.transient_prob = 0.0;
  options.permanent_prob = 0.2;
  std::shared_ptr<FaultInjectingOperator> fault_op;
  Plan plan = MakeFaultyChainPlan(&fault_op, options);
  ExecutorConfig config;
  config.dop = 2;
  config.morsel_records = 8;
  config.max_task_retries = 5;
  Executor executor(config);
  auto result = executor.Run(plan, {{"in", MakeNumbers(200)}});
  ASSERT_FALSE(result.ok());
  // Permanent faults are not retryable, so the retry budget is never spent.
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(result.status().IsRetryable());
  EXPECT_GT(fault_op->permanent_failures(), 0u);
}

TEST(ExecutorTest, RetryPreservesOpenCache) {
  class CountingOpenFaultyOp : public CountingOpenOp {
   public:
    Status ProcessSpan(std::span<const Record> in,
                       Dataset* out) const override {
      if (!failed_once.exchange(true)) {
        return Status::Unavailable("transient");
      }
      return CountingOpenOp::ProcessSpan(in, out);
    }
    mutable std::atomic<bool> failed_once{false};
  };
  auto op = std::make_shared<CountingOpenFaultyOp>();
  Plan plan;
  int src = plan.AddSource("in");
  plan.MarkSink(plan.AddNode(op, {src}), "out");

  ExecutorConfig config;
  config.dop = 1;
  config.max_task_retries = 2;
  Executor executor(config);
  auto result = executor.Run(plan, {{"in", MakeNumbers(8)}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->sink_outputs.at("out").size(), 8u);
  EXPECT_EQ(result->task_retries, 1u);
  EXPECT_EQ(op->opens.load(), 1) << "retry must not re-open the operator";
  Executor::ClearOpenCache();
}

TEST(FaultInjectionTest, OperatorForwardsInnerBehavior) {
  FaultInjectionOptions options;
  options.transient_prob = 0.0;
  options.permanent_prob = 0.0;
  FaultInjectingOperator op(
      std::make_shared<FilterOperator>(
          "even", [](const Record& r) { return r.Field("x").AsInt() % 2 == 0; }),
      options);
  EXPECT_EQ(op.name(), "even!fault");
  Dataset in = MakeNumbers(10);
  Dataset out;
  ASSERT_TRUE(op.ProcessSpan(std::span<const Record>(in), &out).ok());
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(op.transient_failures(), 0u);
  EXPECT_EQ(op.permanent_failures(), 0u);
}

TEST(FaultInjectionTest, TransientFaultClearsOnImmediateRetry) {
  FaultInjectionOptions options;
  options.seed = 3;
  options.transient_prob = 1.0;  // every morsel faults once
  FaultInjectingOperator op(
      std::make_shared<MapOperator>("id", [](const Record& r) { return r; }),
      options);
  Dataset in = MakeNumbers(4);
  Dataset out;
  Status first = op.ProcessSpan(std::span<const Record>(in), &out);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(out.empty()) << "a failing call must not emit partial output";
  // The same morsel retried on the same thread succeeds deterministically.
  ASSERT_TRUE(op.ProcessSpan(std::span<const Record>(in), &out).ok());
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(op.transient_failures(), 1u);
}

TEST(ExecutorTest, SinkOnSourcePassesThrough) {
  Plan plan;
  int src = plan.AddSource("in");
  plan.MarkSink(src, "echo");
  Executor executor;
  auto result = executor.Run(plan, {{"in", MakeNumbers(5)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sink_outputs.at("echo").size(), 5u);
}

// ------------------------------------------------------------ Meteor

OperatorRegistry MakeTestRegistry() {
  OperatorRegistry registry;
  registry.Register("keep_even", [](const std::map<std::string, std::string>&)
                                     -> Result<OperatorPtr> {
    return OperatorPtr(
        std::make_shared<FilterOperator>("keep_even", [](const Record& r) {
          return r.Field("x").AsInt() % 2 == 0;
        }));
  });
  registry.Register(
      "add", [](const std::map<std::string, std::string>& args)
                 -> Result<OperatorPtr> {
        auto it = args.find("n");
        if (it == args.end()) return Status::InvalidArgument("missing n");
        int64_t n = std::strtoll(it->second.c_str(), nullptr, 10);
        return OperatorPtr(
            std::make_shared<MapOperator>("add", [n](const Record& r) {
              Record copy = r;
              copy.SetField("x", r.Field("x").AsInt() + n);
              return copy;
            }));
      });
  return registry;
}

TEST(MeteorTest, ParsesAndRunsScript) {
  OperatorRegistry registry = MakeTestRegistry();
  MeteorParser parser(&registry);
  auto plan = parser.Parse(R"(
    # a small test flow
    $in   = read 'numbers';
    $even = keep_even $in;
    $plus = add $even n '10';
    write $plus 'out';
  )");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Executor executor;
  auto result = executor.Run(plan.value(), {{"numbers", MakeNumbers(10)}});
  ASSERT_TRUE(result.ok());
  const Dataset& out = result->sink_outputs.at("out");
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].Field("x").AsInt(), 10);
}

TEST(MeteorTest, UnionStatement) {
  OperatorRegistry registry = MakeTestRegistry();
  MeteorParser parser(&registry);
  auto plan = parser.Parse(
      "$a = read 'p'; $b = read 'q'; $u = union $a $b; write $u 'out';");
  ASSERT_TRUE(plan.ok());
  Executor executor;
  auto result = executor.Run(plan.value(),
                             {{"p", MakeNumbers(3)}, {"q", MakeNumbers(4)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sink_outputs.at("out").size(), 7u);
}

TEST(MeteorTest, ErrorUnknownOperator) {
  OperatorRegistry registry = MakeTestRegistry();
  MeteorParser parser(&registry);
  auto plan = parser.Parse("$a = read 'x'; $b = nosuchop $a;");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("nosuchop"), std::string::npos);
}

TEST(MeteorTest, ErrorUndefinedVariable) {
  OperatorRegistry registry = MakeTestRegistry();
  MeteorParser parser(&registry);
  auto plan = parser.Parse("$b = keep_even $missing;");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("missing"), std::string::npos);
}

TEST(MeteorTest, ErrorUnterminatedString) {
  OperatorRegistry registry = MakeTestRegistry();
  MeteorParser parser(&registry);
  EXPECT_FALSE(parser.Parse("$a = read 'broken;").ok());
}

TEST(MeteorTest, ErrorCarriesLineNumber) {
  OperatorRegistry registry = MakeTestRegistry();
  MeteorParser parser(&registry);
  auto plan = parser.Parse("$a = read 'x';\n$b = nosuchop $a;");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("line 2"), std::string::npos);
}

TEST(MeteorTest, MissingOperatorArgReported) {
  OperatorRegistry registry = MakeTestRegistry();
  MeteorParser parser(&registry);
  auto plan = parser.Parse("$a = read 'x'; $b = add $a; write $b 'o';");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("missing n"), std::string::npos);
}

TEST(MeteorTest, CommentsIgnored) {
  OperatorRegistry registry = MakeTestRegistry();
  MeteorParser parser(&registry);
  EXPECT_TRUE(parser.Parse("# only a comment\n$a = read 'x';").ok());
}

}  // namespace
}  // namespace wsie::dataflow
