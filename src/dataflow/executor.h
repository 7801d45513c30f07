#ifndef WSIE_DATAFLOW_EXECUTOR_H_
#define WSIE_DATAFLOW_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "dataflow/plan.h"

namespace wsie::dataflow {

/// Execution parameters, modeling the cluster of Sect. 4.2.
struct ExecutorConfig {
  ExecutorConfig() = default;
  /// Positional shorthand for the three seed-era knobs; the newer fields
  /// keep their defaults and are set as members.
  ExecutorConfig(size_t dop_in, size_t budget, size_t morsel)
      : dop(dop_in), memory_per_worker_budget(budget), morsel_records(morsel) {}

  /// Degree of parallelism: number of concurrent workers per operator.
  size_t dop = 4;
  /// Per-worker memory budget in bytes; 0 disables the check. When an
  /// operator's MemoryBytesPerWorker() exceeds this, execution fails with
  /// ResourceExhausted — the Sect. 4.2 war story ("the complete data flow
  /// needs roughly 60 GB main memory per worker thread, which clearly
  /// exceeds the RAM available on each node").
  size_t memory_per_worker_budget = 0;
  /// Fuse chains of record-at-a-time operators into single pipeline stages
  /// (records stream through without intermediate Dataset materialization).
  /// Off = every operator is its own stage; same engine, same outputs.
  bool fuse_pipelines = true;
  /// Records per morsel pulled from the shared cursor (0 counts as 1).
  size_t morsel_records = 8;
  /// Cache successful Open() calls process-wide, keyed by operator identity,
  /// so expensive start-up (dictionary automaton construction, the Fig. 5
  /// "hard lower bound") runs once per process instead of once per Run().
  /// Cached operators stay open until Executor::ClearOpenCache().
  bool cache_opens = true;
  /// Optional shared worker pool. When null the executor creates its own
  /// pool at construction and reuses it across Run() calls.
  std::shared_ptr<ThreadPool> pool;
  /// Task-level recovery: a morsel whose operator chain fails with a
  /// retryable Status (Status::IsRetryable() — time-outs, unavailability) is
  /// re-run from its pristine input span up to this many extra times before
  /// the run fails. Only the failed morsel's stage re-executes — completed
  /// morsels, other workers, and cached Open() state are untouched.
  /// Non-retryable failures still fail the run on the first occurrence.
  /// Enabling retries (> 0) disables destructive stage-head moves: the
  /// morsel's input must stay intact for a potential re-run.
  int max_task_retries = 0;
  /// Shard id when this executor is one worker of a shard::ShardRuntime
  /// (-1 = unsharded). Stage/morsel trace spans get an ":s<id>" suffix so
  /// per-shard timelines separate in the Chrome trace.
  int shard_id = -1;
};

/// Per-operator execution statistics.
struct OperatorRunStats {
  std::string name;
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t bytes_out = 0;  ///< annotation-volume accounting (Sect. 4.2)
  double open_seconds = 0.0;
  double process_seconds = 0.0;
  uint64_t morsels = 0;      ///< morsels this operator processed
  bool open_cached = false;  ///< Open() satisfied from the process-wide cache
};

/// Per-pipeline-stage statistics. A stage is one fusion group: a maximal
/// chain of record-at-a-time operators executed morsel-at-a-time, whose
/// interior outputs are never materialized as Datasets.
struct StageRunStats {
  std::string name;  ///< operator names joined with '+'
  size_t operators = 0;
  bool fused = false;
  uint64_t morsels = 0;
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  /// Bytes the stage tail materialized (its output Dataset).
  uint64_t bytes_materialized = 0;
  /// Bytes that flowed through fused interior operators without ever being
  /// materialized — the savings fusion buys (Sect. 4.2 annotation blow-up).
  uint64_t bytes_not_materialized = 0;
  double wall_seconds = 0.0;
};

/// Result of executing a plan.
struct ExecutionResult {
  std::map<std::string, Dataset> sink_outputs;
  std::vector<OperatorRunStats> operator_stats;
  std::vector<StageRunStats> stage_stats;
  double total_seconds = 0.0;
  uint64_t total_bytes_materialized = 0;
  /// Bytes processed by fused interior operators without materialization.
  uint64_t total_bytes_streamed = 0;
  /// Open() calls actually executed this run vs. served from the cache.
  uint64_t open_cold = 0;
  uint64_t open_cached = 0;
  /// Morsel re-executions after retryable operator failures
  /// (ExecutorConfig::max_task_retries).
  uint64_t task_retries = 0;
};

/// The pipelined plan executor.
///
/// The plan is partitioned into pipeline stages (fusion groups emitted by
/// the optimizer); stages run in topological order. Within a stage, workers
/// pull fixed-size morsels from a shared atomic cursor over zero-copy
/// `std::span` views of the upstream output, stream each morsel through the
/// fused operator chain (moving records between operators), and materialize
/// only at the stage tail, in morsel order — so sink outputs are
/// byte-identical across DoP. Operator Open() runs once per stage before
/// the parallel phase and is timed separately — start-up cost is *not*
/// amortized by DoP, which is exactly what bounded the paper's scale-out
/// (Fig. 5: the ~20-minute dictionary load is "a hard lower bound for the
/// runtime of this task, regardless of the number of nodes"); the
/// process-wide Open() cache amortizes it across Run() calls instead.
class Executor {
 public:
  explicit Executor(ExecutorConfig config = {});

  /// Runs `plan` with the given named source datasets.
  Result<ExecutionResult> Run(const Plan& plan,
                              const std::map<std::string, Dataset>& sources) const;

  const ExecutorConfig& config() const { return config_; }

  /// Closes and discards every cached operator Open(). Subsequent runs
  /// re-open cold. For tests and process teardown.
  static void ClearOpenCache();

 private:
  Status CheckMemoryBudget(const Plan& plan) const;

  ExecutorConfig config_;
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace wsie::dataflow

#endif  // WSIE_DATAFLOW_EXECUTOR_H_
