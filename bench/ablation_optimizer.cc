// Ablation (DESIGN.md #4): the SOFA-style logical optimizer. Builds a
// deliberately mis-ordered UDF chain (expensive annotators before cheap
// selective filters), then compares estimated and measured runtimes with
// the optimizer off and on (best of five interleaved runs after a warm-up).

#include "bench_util.h"
#include "common/stopwatch.h"
#include "dataflow/executor.h"
#include "dataflow/operators_base.h"
#include "dataflow/optimizer.h"

int main() {
  using namespace wsie;
  using dataflow::Record;
  bench::PrintHeader("Ablation: SOFA-style logical optimization",
                     "Sect. 3.1 (logical optimization, [23])");
  bench::BenchScale scale;
  scale.relevant_docs = 1;
  scale.irrelevant_docs = 1;
  scale.medline_docs = 120;
  scale.pmc_docs = 1;
  bench::BenchEnv env = bench::MakeBenchEnv(scale);
  const auto& docs = env.corpora.at(corpus::CorpusKind::kMedline);

  // A mis-ordered flow: annotate everything, then keep only documents that
  // mention "cancer" (selective, cheap, commutes with the annotators).
  auto build_plan = [&] {
    dataflow::Plan plan;
    int node = plan.AddSource("docs");
    node = plan.AddNode(core::MakeAnnotateSentences(env.context), {node});
    node = plan.AddNode(core::MakeAnnotatePos(env.context), {node});
    node = plan.AddNode(
        core::MakeAnnotateEntitiesMl(env.context, ie::EntityType::kGene),
        {node});
    dataflow::OperatorTraits filter_traits;
    filter_traits.reads = {core::kFieldText};
    filter_traits.selectivity = 0.2;
    filter_traits.cost_per_record = 0.2;
    node = plan.AddNode(
        std::make_shared<dataflow::FilterOperator>(
            "filter_mentions_cancer",
            [](const Record& r) {
              return r.Field(core::kFieldText).AsString().find("cancer") !=
                     std::string::npos;
            },
            filter_traits),
        {node});
    plan.MarkSink(node, "out");
    return plan;
  };

  dataflow::Executor executor(dataflow::ExecutorConfig{1, 0, 8});
  // One timed run of `plan`; its sink cardinality lands in `*out_records`.
  auto timed_run = [&](dataflow::Plan* plan, size_t* out_records) {
    return [&executor, &docs, plan, out_records] {
      Stopwatch sw;
      auto result = executor.Run(
          *plan, {{"docs", core::DocumentsToRecords(docs)}});
      const double seconds = sw.ElapsedSeconds();
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        std::exit(1);
      }
      *out_records = result->sink_outputs.at("out").size();
      return seconds;
    };
  };

  dataflow::Plan naive = build_plan();
  dataflow::Plan optimized = build_plan();
  dataflow::Optimizer optimizer;
  auto report = optimizer.Optimize(&optimized);
  // Best of five interleaved runs per plan (min estimator).
  size_t naive_out = 0, optimized_out = 0;
  const std::vector<bench::ArmSamples> runs = bench::RunRepetitions(
      5, {{"naive plan", timed_run(&naive, &naive_out)},
          {"optimized plan", timed_run(&optimized, &optimized_out)}});
  const double naive_seconds = runs[0].stats.min;
  const double optimized_seconds = runs[1].stats.min;

  std::printf("reorderings applied: %zu\n", report.steps.size());
  for (const auto& step : report.steps) {
    std::printf("  moved '%s' ahead of '%s'\n", step.moved_earlier.c_str(),
                step.moved_later.c_str());
  }
  std::printf("estimated chain cost: %.0f -> %.0f\n",
              report.estimated_cost_before, report.estimated_cost_after);
  bench::PrintArms(runs, "run seconds");
  std::printf("measured runtime:     %.3fs -> %.3fs (%.1fx)\n", naive_seconds,
              optimized_seconds,
              optimized_seconds > 0 ? naive_seconds / optimized_seconds : 0.0);
  std::printf("result cardinality:   %zu -> %zu (must be equal)\n", naive_out,
              optimized_out);

  bool ok = !report.steps.empty() && naive_out == optimized_out &&
            report.estimated_cost_after < report.estimated_cost_before &&
            optimized_seconds < naive_seconds * 1.05;
  std::printf("\noptimizer ablation (filter pushed ahead of UDFs, same "
              "result, faster): %s\n", ok ? "HOLDS" : "VIOLATED");
  return ok ? 0 : 1;
}
