#ifndef WSIE_SHARD_RUNTIME_H_
#define WSIE_SHARD_RUNTIME_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/plan.h"
#include "dataflow/value.h"
#include "obs/remote.h"
#include "shard/planner.h"
#include "shard/transport.h"

namespace wsie::shard {

/// Builds one plan instance per endpoint: shard ids 0..num_shards-1 are
/// workers, id == num_shards is the coordinator. Every instance must have
/// the same topology and deterministic operators (same inputs -> same
/// outputs); distinct instances give each shard its own operator state and
/// its own Open() cache entries — per-shard morsel schedulers, dictionaries,
/// and store segment directories fall out of this.
using PlanFactory = std::function<dataflow::Plan(int shard)>;

struct ShardOptions {
  size_t num_shards = 2;
  /// Field hash-partitioned at scatter points when no operator declares a
  /// key of its own (`OperatorTraits::partition_key`).
  std::string partition_key = "id";
  /// Sources replicated to every shard (small dictionary-side inputs).
  std::set<std::string> broadcast_sources;
  bool fuse_pipelines = true;
  /// Morsel-level parallelism inside each shard's own scheduler.
  size_t dop_per_shard = 1;
  /// Per-shard executor task retries (split-correctness under faults).
  int max_task_retries = 0;
  /// Fork one process per shard and exchange over local socketpairs
  /// instead of running worker threads in-process.
  bool multiprocess = false;
  /// Run the worker loops one after another on the calling thread instead
  /// of concurrently — the documented single-core measurement mode: each
  /// shard's processing time is then uncontended wall time, so
  /// work-division speedup can be gated on a 1-core runner. Only valid for
  /// plans without shard-to-shard exchanges (the planner's
  /// `has_worker_exchange`); the coordinator still runs concurrently.
  bool sequential_workers = false;
  /// Runs on each worker (in the worker's process) after its last
  /// fragment, before stats are reported — e.g. flushing a per-shard
  /// StoreSink into that shard's segment directory. In multiprocess mode
  /// this executes in the child, so it must communicate via the
  /// filesystem, not captured memory.
  std::function<Status(int shard)> per_shard_finish;
};

struct ShardWorkerStats {
  int shard = -1;
  double wall_seconds = 0.0;
  double open_seconds = 0.0;     ///< summed operator Open() time
  double process_seconds = 0.0;  ///< summed operator processing time
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t task_retries = 0;
  Status status;

  /// Wire form inside a forked worker's end-of-run control frame.
  dataflow::Record ToRecord() const;
  static ShardWorkerStats FromRecord(const dataflow::Record& record);
};

/// One row of the per-shard skew report: how much of the run's input each
/// shard processed (the fig5 per-shard load table).
struct ShardSkewRow {
  int shard = -1;
  uint64_t records_in = 0;
  double process_seconds = 0.0;
  double share = 0.0;  ///< records_in / total records_in across shards
};

/// The distributed-observability output of one sharded run.
struct ShardObsReport {
  /// True when worker bundles were collected: always in multiprocess mode
  /// (each worker ships its ObsBundle in its control frame), never
  /// in-process, where workers already share the global registry and
  /// recorder.
  bool collected = false;
  std::vector<obs::ObsBundle> per_shard;  ///< one bundle per worker shard
  std::vector<int64_t> offsets_ns;        ///< clock re-base per worker
  uint64_t bundle_bytes = 0;              ///< encoded bundle bytes shipped
  obs::MetricsSnapshot merged;            ///< workers' snapshots, merged
  std::string stitched_trace_json;        ///< one Chrome trace, all pids
  obs::StitchReport stitch;
  std::vector<ShardSkewRow> skew;  ///< both modes, from worker stats
};

struct ShardExecutionResult {
  std::map<std::string, dataflow::Dataset> sink_outputs;
  std::vector<ShardWorkerStats> workers;
  size_t fragments = 0;
  size_t sharded_fragments = 0;
  uint64_t rows_shuffled = 0;
  uint64_t bytes_moved = 0;
  uint64_t exchange_messages = 0;
  double max_hash_skew = 0.0;
  double total_seconds = 0.0;
  uint64_t trace_id = 0;  ///< the run's distributed trace id
  ShardObsReport obs;
};

/// Executes a plan across N shards. The planner splits the plan into
/// fragments at fusion-group boundaries; record-parallel fragments run on
/// every shard over their hash partition, pipeline breakers run on the
/// coordinator, and the exchange layer moves records between them with
/// hidden serial-order tags so every gather reproduces the exact serial
/// order — sink outputs are byte-identical to a plain Executor run
/// regardless of shard count, scheduling, or transport.
class ShardRuntime {
 public:
  explicit ShardRuntime(ShardOptions options);

  Result<ShardExecutionResult> Run(
      const PlanFactory& factory,
      const std::map<std::string, dataflow::Dataset>& sources) const;

  const ShardOptions& options() const { return options_; }

 private:
  Result<ShardExecutionResult> RunInProcess(
      const PlanFactory& factory, const ShardedPlan& splan,
      const dataflow::Plan& coordinator_plan,
      const std::map<std::string, dataflow::Dataset>& sources) const;
  Result<ShardExecutionResult> RunMultiProcess(
      const PlanFactory& factory, const ShardedPlan& splan,
      const dataflow::Plan& coordinator_plan,
      const std::map<std::string, dataflow::Dataset>& sources) const;

  ShardOptions options_;
};

}  // namespace wsie::shard

#endif  // WSIE_SHARD_RUNTIME_H_
