#include "shard/runtime.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "dataflow/executor.h"
#include "obs/metrics.h"
#include "obs/remote.h"
#include "obs/trace.h"

namespace wsie::shard {
namespace {

using dataflow::Dataset;
using dataflow::Plan;
using dataflow::Record;

/// Field of a worker's control-frame record that carries its encoded
/// ObsBundle, next to the ShardWorkerStats fields.
constexpr char kObsBundleField[] = "obs_bundle";

/// The executor a shard-side process (worker or coordinator) runs its
/// fragments on; `shard_id` labels its metrics.
dataflow::ExecutorConfig ShardExecutorConfig(const ShardOptions& options,
                                             int shard_id) {
  dataflow::ExecutorConfig config;
  config.dop = std::max<size_t>(1, options.dop_per_shard);
  config.fuse_pipelines = options.fuse_pipelines;
  // Per-shard plan instances are fresh objects every run, so the
  // process-wide Open() cache could never hit; it would only pin them.
  config.cache_opens = false;
  config.max_task_retries = options.max_task_retries;
  config.shard_id = shard_id;
  return config;
}

/// Runs one fragment on `executor`: the fragment's operator chain taken
/// from this endpoint's plan instance, one source per head input edge
/// (named "in0", "in1", ... in declared order, so the executor's union
/// preserves the serial concatenation order) and an "out" sink at the tail.
Result<dataflow::ExecutionResult> RunFragment(dataflow::Executor* executor,
                                              const Plan& full,
                                              const Fragment& fragment,
                                              std::vector<Dataset> inputs) {
  if (inputs.empty()) inputs.emplace_back();  // a head always reads a source
  Plan sub;
  std::map<std::string, Dataset> sources;
  std::vector<int> head_sources;
  for (size_t e = 0; e < inputs.size(); ++e) {
    const std::string name = "in" + std::to_string(e);
    head_sources.push_back(sub.AddSource(name));
    sources[name] = std::move(inputs[e]);
  }
  int prev = Plan::kInvalidNode;
  for (size_t i = 0; i < fragment.nodes.size(); ++i) {
    const auto& node = full.nodes()[static_cast<size_t>(fragment.nodes[i])];
    prev = i == 0 ? sub.AddNode(node.op, head_sources)
                  : sub.AddNode(node.op, {prev});
  }
  sub.MarkSink(prev, "out");
  return executor->Run(sub, sources);
}

/// Fragment outputs an endpoint keeps for its own later readers. `refs`
/// counts the reads still to come; the last one moves the data out.
struct Stash {
  explicit Stash(size_t fragments) : outputs(fragments), refs(fragments, 0) {}

  Dataset Take(int producer) {
    const size_t p = static_cast<size_t>(producer);
    return --refs[p] == 0 ? std::exchange(outputs[p], Dataset())
                          : outputs[p];
  }

  std::vector<Dataset> outputs;
  std::vector<int> refs;
};

/// Receives one chunk on `channel` from every worker shard and merges them
/// back into serial order (still tagged).
Result<Dataset> GatherFromShards(Transport* transport, int channel,
                                 int num_shards, int to) {
  std::vector<Dataset> chunks(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    WSIE_ASSIGN_OR_RETURN(chunks[static_cast<size_t>(s)],
                          transport->Recv(channel, s, to));
  }
  return MergeBySeq(std::move(chunks));
}

/// Partitions tagged `records` by `key` over the ring and sends part t to
/// shard t.
Status ScatterByKey(Transport* transport, int channel, int from,
                    int num_shards, const std::string& key, Dataset records) {
  std::vector<Dataset> parts = PartitionDataset(
      std::move(records),
      RecordPartitioner(static_cast<size_t>(num_shards), key));
  for (int t = 0; t < num_shards; ++t) {
    WSIE_RETURN_NOT_OK(transport->Send(channel, from, t,
                                       std::move(parts[static_cast<size_t>(t)])));
  }
  return Status::OK();
}

void CopyTransportStats(const Transport& transport,
                        ShardExecutionResult* result) {
  const TransportStats stats = transport.Stats();
  result->rows_shuffled = stats.rows;
  result->bytes_moved = stats.bytes;
  result->exchange_messages = stats.messages;
  result->max_hash_skew = stats.max_hash_skew;
}

/// The status of a finished run. The endpoint whose own work failed sees
/// the concrete error; its peers see only the knock-on — the abort status
/// in-process, a closed link across processes — and a closed link reads as
/// retryable. So a permanent failure wins wherever it happened (workers in
/// shard order first), then the coordinator's failure, then any worker's.
Status RunStatus(const std::vector<ShardWorkerStats>& workers,
                 const Status& coordinator) {
  for (const ShardWorkerStats& w : workers) {
    if (!w.status.ok() && !w.status.IsRetryable()) return w.status;
  }
  if (!coordinator.ok()) return coordinator;
  for (const ShardWorkerStats& w : workers) {
    if (!w.status.ok()) return w.status;
  }
  return Status::OK();
}

struct WorkerEnv {
  int shard = 0;
  const ShardedPlan* splan = nullptr;
  const Plan* plan = nullptr;  ///< this shard's plan instance
  Transport* transport = nullptr;
  const ShardOptions* options = nullptr;
};

/// Walks the fragments in topological order, runs the sharded ones on this
/// shard's partition with this shard's own executor (morsel scheduler),
/// and drives the exchange protocol on both the inbound and outbound side
/// of each fragment.
Status RunWorkerFragments(const WorkerEnv& env, ShardWorkerStats* stats) {
  const ShardedPlan& splan = *env.splan;
  const int num_shards = static_cast<int>(env.options->num_shards);
  const int coordinator = num_shards;
  Transport* transport = env.transport;
  dataflow::Executor executor(ShardExecutorConfig(*env.options, env.shard));

  // Per fragment: the edges its output leaves this shard on (re-hash or
  // gather), and in the stash the reads of its forward consumers.
  std::vector<std::vector<const ExchangeEdge*>> outbound(
      splan.fragments.size());
  Stash stash(splan.fragments.size());
  for (const Fragment& fragment : splan.fragments) {
    for (const ExchangeEdge& edge : fragment.inputs) {
      if (edge.producer_fragment < 0) continue;
      const size_t producer = static_cast<size_t>(edge.producer_fragment);
      if (edge.kind == ExchangeKind::kForward) {
        ++stash.refs[producer];
      } else {
        outbound[producer].push_back(&edge);
      }
    }
  }

  for (size_t fi = 0; fi < splan.fragments.size(); ++fi) {
    const Fragment& fragment = splan.fragments[fi];
    if (!fragment.sharded) continue;

    std::vector<Dataset> inputs;
    for (const ExchangeEdge& edge : fragment.inputs) {
      Dataset input;
      switch (edge.kind) {
        case ExchangeKind::kForward:
          input = stash.Take(edge.producer_fragment);
          break;
        case ExchangeKind::kHash:
          if (edge.producer_fragment >= 0 &&
              splan.fragments[static_cast<size_t>(edge.producer_fragment)]
                  .sharded) {
            // Re-hash: one chunk from every worker, restored to serial
            // order by the tag merge.
            WSIE_ASSIGN_OR_RETURN(
                input, GatherFromShards(transport, edge.channel, num_shards,
                                        env.shard));
            break;
          }
          [[fallthrough]];
        case ExchangeKind::kBroadcast: {
          WSIE_ASSIGN_OR_RETURN(
              input, transport->Recv(edge.channel, coordinator, env.shard));
          break;
        }
        case ExchangeKind::kGather:
          return Status::Internal(
              "shard worker saw a gather input on a sharded fragment");
      }
      stats->records_in += input.size();
      inputs.push_back(std::move(input));
    }

    WSIE_ASSIGN_OR_RETURN(
        dataflow::ExecutionResult run,
        RunFragment(&executor, *env.plan, fragment, std::move(inputs)));
    for (const auto& op : run.operator_stats) {
      stats->open_seconds += op.open_seconds;
      stats->process_seconds += op.process_seconds;
    }
    stats->task_retries += run.task_retries;
    Dataset output = std::move(run.sink_outputs["out"]);
    stats->records_out += output.size();

    // Outbound side: re-hash and gather sends, then the local stash for
    // forward consumers. `uses` counts hand-offs so only the last moves.
    size_t uses = outbound[fi].size() +
                  (fragment.sink_gather_channel >= 0 ? 1 : 0) +
                  (stash.refs[fi] > 0 ? 1 : 0);
    auto take = [&]() {
      return --uses == 0 ? std::move(output) : Dataset(output);
    };
    for (const ExchangeEdge* edge : outbound[fi]) {
      if (edge->kind == ExchangeKind::kGather) {
        WSIE_RETURN_NOT_OK(
            transport->Send(edge->channel, env.shard, coordinator, take()));
        continue;
      }
      Dataset records = take();
      // Siblings with equal tags may now split across shards; extend the
      // tag with the emission index so the merge keeps their order.
      ExtendSeqTags(&records);
      WSIE_RETURN_NOT_OK(ScatterByKey(transport, edge->channel, env.shard,
                                      num_shards, edge->key,
                                      std::move(records)));
    }
    if (fragment.sink_gather_channel >= 0) {
      WSIE_RETURN_NOT_OK(transport->Send(fragment.sink_gather_channel,
                                         env.shard, coordinator, take()));
    }
    if (stash.refs[fi] > 0) stash.outputs[fi] = take();
  }

  if (env.options->per_shard_finish) {
    WSIE_RETURN_NOT_OK(env.options->per_shard_finish(env.shard));
  }
  return Status::OK();
}

/// The per-shard worker: runs its fragments under a root span and, on
/// failure, aborts the transport so its peers unblock.
ShardWorkerStats RunShardWorker(const WorkerEnv& env) {
  const Stopwatch wall;
  ShardWorkerStats stats;
  stats.shard = env.shard;
  {
    // The worker's root span carries the distributed trace context in its
    // args ("trace=... parent=..."): the stitched multi-pid trace links
    // this span to the coordinator's run span through it.
    char span_name[32];
    std::snprintf(span_name, sizeof(span_name), "shard.worker.%d", env.shard);
    obs::ScopedSpan worker_span(
        span_name, obs::TraceContextArgs(obs::CurrentTraceContext()));
    stats.status = RunWorkerFragments(env, &stats);
  }
  if (!stats.status.ok()) env.transport->Abort(stats.status);
  stats.wall_seconds = wall.ElapsedSeconds();
  return stats;
}

/// The coordinator loop: scatters sources and coordinator-fragment outputs
/// to the workers (assigning the serial-order tags), runs the pipeline
/// breakers locally, and merges every gather back into serial order.
Result<std::map<std::string, Dataset>> RunCoordinatorFragments(
    const ShardedPlan& splan, const Plan& plan, Transport* transport,
    const ShardOptions& options,
    const std::map<std::string, Dataset>& sources) {
  const int num_shards = static_cast<int>(options.num_shards);
  const int coordinator = num_shards;
  std::map<std::string, Dataset> sink_outputs;

  dataflow::Executor executor(ShardExecutorConfig(options, coordinator));

  auto bind_source = [&](const std::string& name) -> Result<Dataset> {
    auto it = sources.find(name);
    if (it == sources.end()) {
      return Status::InvalidArgument("sharded run: unbound source '" + name +
                                     "'");
    }
    return Dataset(it->second);
  };

  // Every consumer of a coordinator fragment reads its output here: a
  // forward into another coordinator fragment, or a hash scatter into a
  // sharded one. Sharded fragments' outputs live in the workers' stash.
  auto on_coordinator = [&](int producer) {
    return producer >= 0 &&
           !splan.fragments[static_cast<size_t>(producer)].sharded;
  };
  Stash stash(splan.fragments.size());
  for (const Fragment& fragment : splan.fragments) {
    for (const ExchangeEdge& edge : fragment.inputs) {
      if (on_coordinator(edge.producer_fragment)) {
        ++stash.refs[static_cast<size_t>(edge.producer_fragment)];
      }
    }
  }

  for (size_t fi = 0; fi < splan.fragments.size(); ++fi) {
    const Fragment& fragment = splan.fragments[fi];
    if (fragment.sharded) {
      // Scatter this fragment's coordinator-side inputs — every one a hash
      // or broadcast edge. One running counter across all edges: the tag
      // order is the serial concatenation order the head would see
      // unsharded.
      int64_t next_seq = 0;
      for (const ExchangeEdge& edge : fragment.inputs) {
        Dataset outbound;
        if (on_coordinator(edge.producer_fragment)) {
          outbound = stash.Take(edge.producer_fragment);
        } else if (edge.producer_fragment < 0) {
          WSIE_ASSIGN_OR_RETURN(outbound, bind_source(edge.source_name));
        } else {
          continue;  // forward or re-hash on the worker side
        }
        TagSerialOrder(&outbound, &next_seq);
        if (edge.kind == ExchangeKind::kHash) {
          WSIE_RETURN_NOT_OK(ScatterByKey(transport, edge.channel,
                                          coordinator, num_shards, edge.key,
                                          std::move(outbound)));
          continue;
        }
        MarkBroadcast(&outbound);
        for (int t = 0; t < num_shards; ++t) {
          Dataset copy =
              t + 1 < num_shards ? Dataset(outbound) : std::move(outbound);
          WSIE_RETURN_NOT_OK(
              transport->Send(edge.channel, coordinator, t, std::move(copy)));
        }
      }
      if (fragment.sink_gather_channel >= 0) {
        WSIE_ASSIGN_OR_RETURN(
            Dataset merged,
            GatherFromShards(transport, fragment.sink_gather_channel,
                             num_shards, coordinator));
        StripShardTags(&merged);
        sink_outputs[fragment.sink_name] = std::move(merged);
      }
      continue;
    }

    // Coordinator fragment: gather its shard-side inputs, bind the rest.
    std::vector<Dataset> inputs;
    for (const ExchangeEdge& edge : fragment.inputs) {
      Dataset input;
      if (edge.kind == ExchangeKind::kGather) {
        WSIE_ASSIGN_OR_RETURN(input, GatherFromShards(transport, edge.channel,
                                                      num_shards, coordinator));
        StripShardTags(&input);
      } else if (edge.producer_fragment < 0) {
        WSIE_ASSIGN_OR_RETURN(input, bind_source(edge.source_name));
      } else {
        input = stash.Take(edge.producer_fragment);
      }
      inputs.push_back(std::move(input));
    }
    WSIE_ASSIGN_OR_RETURN(
        dataflow::ExecutionResult run,
        RunFragment(&executor, plan, fragment, std::move(inputs)));
    Dataset output = std::move(run.sink_outputs["out"]);
    if (!fragment.sink_name.empty()) {
      sink_outputs[fragment.sink_name] =
          stash.refs[fi] > 0 ? Dataset(output) : std::move(output);
    }
    if (stash.refs[fi] > 0) stash.outputs[fi] = std::move(output);
  }

  // Sources marked directly as sinks pass through untouched.
  for (const auto& node : plan.nodes()) {
    if (node.is_source() && !node.sink_name.empty()) {
      WSIE_ASSIGN_OR_RETURN(sink_outputs[node.sink_name],
                            bind_source(node.source_name));
    }
  }
  return sink_outputs;
}

/// The coordinator: runs its loop and, on failure, aborts the transport so
/// the workers unblock.
Result<std::map<std::string, Dataset>> RunCoordinator(
    const ShardedPlan& splan, const Plan& plan, Transport* transport,
    const ShardOptions& options,
    const std::map<std::string, Dataset>& sources) {
  auto result =
      RunCoordinatorFragments(splan, plan, transport, options, sources);
  if (!result.ok()) transport->Abort(result.status());
  return result;
}

/// Receives forked worker `shard`'s end-of-run control frame into `stats`
/// and `obs` (its bundle, re-based into the coordinator's clock).
Status ReceiveControlFrame(Transport* hub, int shard, int coordinator,
                           ShardWorkerStats* stats, ShardObsReport* obs) {
  WSIE_ASSIGN_OR_RETURN(Dataset frame,
                        hub->Recv(kControlChannel, shard, coordinator));
  if (frame.size() != 1) {
    return Status::Internal("malformed worker control frame");
  }
  *stats = ShardWorkerStats::FromRecord(frame.front());
  const dataflow::Value& blob = frame.front().Field(kObsBundleField);
  if (!blob.is_string()) {
    return Status::Internal("worker control frame carries no obs bundle");
  }
  WSIE_ASSIGN_OR_RETURN(obs::ObsBundle bundle,
                        obs::DecodeObsBundle(blob.AsString()));
  obs->bundle_bytes += blob.AsString().size();
  // Clock re-base handshake: the bundle carries the sender's NowNs() at
  // encode time; the receiver-side offset maps the worker's timestamps
  // into the coordinator's domain (error is bounded by the transfer
  // latency).
  obs->offsets_ns.push_back(
      static_cast<int64_t>(obs::TraceRecorder::Global().NowNs()) -
      static_cast<int64_t>(bundle.now_ns));
  obs->per_shard.push_back(std::move(bundle));
  return Status::OK();
}

}  // namespace

Record ShardWorkerStats::ToRecord() const {
  Record record;
  record.SetField("shard", dataflow::Value(static_cast<int64_t>(shard)));
  record.SetField("wall_seconds", dataflow::Value(wall_seconds));
  record.SetField("open_seconds", dataflow::Value(open_seconds));
  record.SetField("process_seconds", dataflow::Value(process_seconds));
  record.SetField("records_in",
                  dataflow::Value(static_cast<int64_t>(records_in)));
  record.SetField("records_out",
                  dataflow::Value(static_cast<int64_t>(records_out)));
  record.SetField("task_retries",
                  dataflow::Value(static_cast<int64_t>(task_retries)));
  record.SetField("status_code",
                  dataflow::Value(static_cast<int64_t>(status.code())));
  record.SetField("status_message", dataflow::Value(status.message()));
  return record;
}

ShardWorkerStats ShardWorkerStats::FromRecord(const Record& record) {
  ShardWorkerStats stats;
  stats.shard = static_cast<int>(record.Field("shard").AsInt());
  stats.wall_seconds = record.Field("wall_seconds").AsDouble();
  stats.open_seconds = record.Field("open_seconds").AsDouble();
  stats.process_seconds = record.Field("process_seconds").AsDouble();
  stats.records_in =
      static_cast<uint64_t>(record.Field("records_in").AsInt());
  stats.records_out =
      static_cast<uint64_t>(record.Field("records_out").AsInt());
  stats.task_retries =
      static_cast<uint64_t>(record.Field("task_retries").AsInt());
  const auto code = static_cast<StatusCode>(record.Field("status_code").AsInt());
  if (code != StatusCode::kOk) {
    stats.status = Status(code, record.Field("status_message").AsString());
  }
  return stats;
}

ShardRuntime::ShardRuntime(ShardOptions options)
    : options_(std::move(options)) {
  if (options_.num_shards == 0) options_.num_shards = 1;
}

Result<ShardExecutionResult> ShardRuntime::Run(
    const PlanFactory& factory,
    const std::map<std::string, Dataset>& sources) const {
  Plan coordinator_plan = factory(static_cast<int>(options_.num_shards));
  ShardPlanner::Options planner_options;
  planner_options.default_partition_key = options_.partition_key;
  planner_options.broadcast_sources = options_.broadcast_sources;
  planner_options.fuse_pipelines = options_.fuse_pipelines;
  WSIE_ASSIGN_OR_RETURN(
      ShardedPlan splan,
      ShardPlanner::Partition(coordinator_plan, planner_options));
  if (options_.sequential_workers && splan.has_worker_exchange) {
    return Status::InvalidArgument(
        "sequential_workers cannot execute shard-to-shard exchanges; run "
        "workers concurrently");
  }
  if (options_.sequential_workers && options_.multiprocess) {
    return Status::InvalidArgument(
        "sequential_workers is an in-process measurement mode");
  }

  const Stopwatch wall;
  // One distributed trace per run: keep an inherited trace id (a nested run
  // stays inside its caller's trace), mint a fresh root span id, and make
  // the pair current so workers inherit it across fork — or adopt it from
  // the first stamped frame they receive.
  const obs::TraceContext parent_ctx = obs::CurrentTraceContext();
  obs::TraceContext run_ctx;
  run_ctx.trace_id =
      parent_ctx.trace_id != 0 ? parent_ctx.trace_id : obs::NewTraceId();
  run_ctx.span_id = obs::NewSpanId();
  obs::SetTraceContext(run_ctx);

  Result<ShardExecutionResult> result = Status::Internal("run did not start");
  {
    // Scoped so the run span is closed before the stitcher exports the
    // coordinator's stream below.
    obs::ScopedSpan run_span(
        "shard.run",
        obs::TraceContextArgs({run_ctx.trace_id, parent_ctx.span_id}));
    result = options_.multiprocess
                 ? RunMultiProcess(factory, splan, coordinator_plan, sources)
                 : RunInProcess(factory, splan, coordinator_plan, sources);
  }
  obs::SetTraceContext(parent_ctx);
  if (!result.ok()) return result;

  result->trace_id = run_ctx.trace_id;
  result->fragments = splan.fragments.size();
  result->sharded_fragments = splan.sharded_fragments;
  result->total_seconds = wall.ElapsedSeconds();

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("wsie.shard.runs")->Increment();
  registry.GetGauge("wsie.shard.workers")
      ->Set(static_cast<double>(options_.num_shards));
  registry.GetCounter("wsie.shard.fragments")->Add(splan.fragments.size());
  registry.GetGauge("wsie.shard.skew")->Set(result->max_hash_skew);
  uint64_t total_in = 0, max_in = 0;
  for (const ShardWorkerStats& w : result->workers) {
    total_in += w.records_in;
    max_in = std::max(max_in, w.records_in);
    registry.GetHistogram("wsie.shard.worker.wall_ns")
        ->Observe(w.wall_seconds * 1e9);
  }
  registry.GetCounter("wsie.shard.worker.records")->Add(total_in);
  registry.GetCounter("wsie.exchange.rows_shuffled")
      ->Add(result->rows_shuffled);
  registry.GetCounter("wsie.exchange.bytes_moved")->Add(result->bytes_moved);
  registry.GetCounter("wsie.exchange.messages")
      ->Add(result->exchange_messages);
  uint64_t hash_edges = 0, broadcast_edges = 0, gather_edges = 0;
  for (const Fragment& fragment : splan.fragments) {
    if (fragment.sink_gather_channel >= 0) ++gather_edges;
    for (const ExchangeEdge& edge : fragment.inputs) {
      if (edge.kind == ExchangeKind::kHash) ++hash_edges;
      if (edge.kind == ExchangeKind::kBroadcast) ++broadcast_edges;
      if (edge.kind == ExchangeKind::kGather) ++gather_edges;
    }
  }
  registry.GetCounter("wsie.exchange.hash")->Add(hash_edges);
  registry.GetCounter("wsie.exchange.broadcast")->Add(broadcast_edges);
  registry.GetCounter("wsie.exchange.gather")->Add(gather_edges);

  // Per-shard skew report (both execution modes; workers are in shard
  // order): each worker's share of the records, the fig5 load-balance table.
  for (const ShardWorkerStats& w : result->workers) {
    const double share = total_in == 0 ? 0.0
                                       : static_cast<double>(w.records_in) /
                                             static_cast<double>(total_in);
    result->obs.skew.push_back(
        {w.shard, w.records_in, w.process_seconds, share});
  }
  const double mean_in = static_cast<double>(total_in) /
                         static_cast<double>(result->workers.size());
  registry.GetGauge("wsie.shard.skew.records")
      ->Set(total_in == 0 ? 0.0 : static_cast<double>(max_in) / mean_in);

  // Register the remote-collection family even on runs that collect
  // nothing, so the metric manifest always sees it.
  obs::Counter* bundles_counter =
      registry.GetCounter("wsie.obs.remote.bundles");
  obs::Counter* bundle_bytes_counter =
      registry.GetCounter("wsie.obs.remote.bytes");
  if (result->obs.collected) {
    bundles_counter->Add(result->obs.per_shard.size());
    bundle_bytes_counter->Add(result->obs.bundle_bytes);
    result->obs.merged = obs::MergeSnapshots(result->obs.per_shard);

    // Stitch: coordinator as Chrome pid 1 at offset 0, worker k as pid 2+k
    // re-based into the coordinator's clock domain.
    std::vector<obs::ProcessTrace> processes;
    obs::ProcessTrace coordinator;
    coordinator.pid = 1;
    coordinator.offset_ns = 0;
    coordinator.streams = obs::TraceRecorder::Global().ExportBalanced();
    coordinator.dropped = obs::TraceRecorder::Global().dropped();
    processes.push_back(std::move(coordinator));
    for (size_t i = 0; i < result->obs.per_shard.size(); ++i) {
      const obs::ObsBundle& bundle = result->obs.per_shard[i];
      obs::ProcessTrace worker;
      worker.pid = 2 + bundle.shard;
      worker.offset_ns = result->obs.offsets_ns[i];
      worker.streams = bundle.streams;
      worker.dropped = bundle.trace_dropped;
      processes.push_back(std::move(worker));
    }
    result->obs.stitched_trace_json =
        obs::StitchChromeTrace(processes, &result->obs.stitch);
  }
  return result;
}


Result<ShardExecutionResult> ShardRuntime::RunInProcess(
    const PlanFactory& factory, const ShardedPlan& splan,
    const Plan& coordinator_plan,
    const std::map<std::string, Dataset>& sources) const {
  const size_t num_shards = options_.num_shards;
  InProcessTransport transport(num_shards);

  std::vector<Plan> worker_plans;
  worker_plans.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    worker_plans.push_back(factory(static_cast<int>(s)));
  }

  ShardExecutionResult result;
  result.workers.resize(num_shards);
  Result<std::map<std::string, Dataset>> coordinator_result =
      Status::Internal("coordinator did not run");

  auto worker_body = [&](size_t s) {
    result.workers[s] = RunShardWorker(
        {static_cast<int>(s), &splan, &worker_plans[s], &transport, &options_});
  };
  auto coordinator_body = [&]() {
    coordinator_result = RunCoordinator(splan, coordinator_plan, &transport,
                                        options_, sources);
  };

  if (options_.sequential_workers) {
    // Measurement mode: workers run one at a time, uncontended, while the
    // coordinator (which mostly waits) runs on a helper thread.
    std::thread coordinator_thread(coordinator_body);
    for (size_t s = 0; s < num_shards; ++s) worker_body(s);
    coordinator_thread.join();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      workers.emplace_back(worker_body, s);
    }
    coordinator_body();
    for (std::thread& t : workers) t.join();
  }

  WSIE_RETURN_NOT_OK(RunStatus(result.workers, coordinator_result.status()));
  result.sink_outputs = std::move(coordinator_result).value();
  CopyTransportStats(transport, &result);
  return result;
}

Result<ShardExecutionResult> ShardRuntime::RunMultiProcess(
    const PlanFactory& factory, const ShardedPlan& splan,
    const Plan& coordinator_plan,
    const std::map<std::string, Dataset>& sources) const {
  const size_t num_shards = options_.num_shards;
  const int coordinator = static_cast<int>(num_shards);
  std::vector<int> parent_fds(num_shards, -1);
  std::vector<int> child_fds(num_shards, -1);
  std::vector<pid_t> children(num_shards, -1);

  for (size_t s = 0; s < num_shards; ++s) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      for (size_t i = 0; i < s; ++i) {
        ::close(parent_fds[i]);
        ::close(child_fds[i]);
      }
      return Status::Unavailable("socketpair failed");
    }
    parent_fds[s] = sv[0];
    child_fds[s] = sv[1];
  }

  // Flush inherited stdio buffers: a worker exiting through exit() would
  // otherwise re-flush the parent's buffered output (visible as duplicated
  // lines when stdout is a file, where stdio is block-buffered).
  std::fflush(nullptr);
  for (size_t s = 0; s < num_shards; ++s) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (size_t i = 0; i < num_shards; ++i) {
        ::close(parent_fds[i]);
        ::close(child_fds[i]);
      }
      for (size_t i = 0; i < s; ++i) ::kill(children[i], SIGKILL);
      return Status::Unavailable("fork failed");
    }
    if (pid == 0) {
      // Worker child: keep only this shard's endpoint.
      for (size_t i = 0; i < num_shards; ++i) {
        ::close(parent_fds[i]);
        if (i != s) ::close(child_fds[i]);
      }
      // Shed the parent's inherited counts and trace rings before any work
      // of our own; the inherited trace context stays — it is the causal
      // link back to the coordinator's run span.
      obs::ResetForkedProcessObs();
      const int shard = static_cast<int>(s);
      SocketTransport child_transport(child_fds[s], num_shards);
      Plan child_plan = factory(shard);
      ShardWorkerStats stats = RunShardWorker(
          {shard, &splan, &child_plan, &child_transport, &options_});
      // The end-of-run control frame, sent even after a failure: the stats
      // record plus this worker's metrics snapshot and trace streams,
      // captured after the worker span closed.
      Record control = stats.ToRecord();
      control.SetField(kObsBundleField,
                       dataflow::Value(obs::EncodeObsBundle(
                           obs::CaptureObsBundle(shard))));
      Frame frame;
      frame.channel = kControlChannel;
      frame.from = shard;
      frame.to = coordinator;
      frame.rows = 1;
      EncodeDataset({std::move(control)}, &frame.payload);
      WriteFrame(child_fds[s], frame);
      ::close(child_fds[s]);
      ::_exit(stats.status.ok() ? 0 : 1);
    }
    children[s] = pid;
  }
  for (size_t s = 0; s < num_shards; ++s) ::close(child_fds[s]);

  ShardExecutionResult result;
  Status coordinator_status;
  {
    HubTransport hub(parent_fds);  // owns fds
    auto coordinator_result =
        RunCoordinator(splan, coordinator_plan, &hub, options_, sources);
    if (coordinator_result.ok()) {
      result.sink_outputs = std::move(coordinator_result).value();
    } else {
      coordinator_status = coordinator_result.status();
    }
    // Every worker reports, also after a failed loop: a failing worker's
    // control frame holds the concrete error the coordinator only saw as a
    // closed link.
    for (int s = 0; s < coordinator; ++s) {
      ShardWorkerStats stats;
      stats.shard = s;
      Status received =
          ReceiveControlFrame(&hub, s, coordinator, &stats, &result.obs);
      if (!received.ok() && stats.status.ok()) stats.status = received;
      result.workers.push_back(std::move(stats));
    }
    result.obs.collected = true;
    CopyTransportStats(hub, &result);
    // HubTransport's destructor closes every fd here, which unblocks any
    // child still waiting in Recv so the reap below cannot hang.
  }
  for (size_t s = 0; s < num_shards; ++s) {
    int wstatus = 0;
    ::waitpid(children[s], &wstatus, 0);
  }
  WSIE_RETURN_NOT_OK(RunStatus(result.workers, coordinator_status));
  return result;
}

}  // namespace wsie::shard
