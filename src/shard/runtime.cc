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

/// The executor a shard-side process (worker or coordinator) runs its
/// fragments on; `shard_id` labels its metrics.
dataflow::ExecutorConfig ShardExecutorConfig(const ShardOptions& options,
                                             int shard_id) {
  dataflow::ExecutorConfig config;
  config.dop = std::max<size_t>(1, options.dop_per_shard);
  config.fuse_pipelines = options.fuse_pipelines;
  config.cache_opens = options.cache_opens;
  config.max_task_retries = options.max_task_retries;
  config.shard_id = shard_id;
  return config;
}

/// Builds the executable sub-plan of one fragment against a shard's plan
/// instance: one source per head input edge (named "in0", "in1", ... in
/// declared order, so the executor's union preserves the serial
/// concatenation order), the fragment's operator chain, and an "out" sink
/// at the tail.
Plan BuildFragmentPlan(const Plan& full, const Fragment& fragment) {
  Plan sub;
  std::vector<int> head_sources;
  const size_t num_edges = std::max<size_t>(1, fragment.inputs.size());
  for (size_t e = 0; e < num_edges; ++e) {
    head_sources.push_back(sub.AddSource("in" + std::to_string(e)));
  }
  int prev = Plan::kInvalidNode;
  for (size_t i = 0; i < fragment.nodes.size(); ++i) {
    const auto& node = full.nodes()[static_cast<size_t>(fragment.nodes[i])];
    prev = i == 0 ? sub.AddNode(node.op, head_sources)
                  : sub.AddNode(node.op, {prev});
  }
  sub.MarkSink(prev, "out");
  return sub;
}

/// For each fragment, its outgoing edges: (consumer fragment, edge index).
std::vector<std::vector<std::pair<int, int>>> ConsumerEdges(
    const ShardedPlan& splan) {
  std::vector<std::vector<std::pair<int, int>>> consumers(
      splan.fragments.size());
  for (size_t f = 0; f < splan.fragments.size(); ++f) {
    const Fragment& fragment = splan.fragments[f];
    for (size_t e = 0; e < fragment.inputs.size(); ++e) {
      const int producer = fragment.inputs[e].producer_fragment;
      if (producer >= 0) {
        consumers[static_cast<size_t>(producer)].push_back(
            {static_cast<int>(f), static_cast<int>(e)});
      }
    }
  }
  return consumers;
}

struct WorkerEnv {
  int shard = 0;
  const ShardedPlan* splan = nullptr;
  const Plan* plan = nullptr;  ///< this shard's plan instance
  Transport* transport = nullptr;
  const ShardOptions* options = nullptr;
};

/// The per-shard worker loop: walks fragments in topological order, runs
/// the sharded ones on this shard's partition with this shard's own
/// executor (morsel scheduler), and drives the exchange protocol on both
/// the inbound and outbound side of each fragment.
ShardWorkerStats RunShardWorker(const WorkerEnv& env) {
  const ShardedPlan& splan = *env.splan;
  const ShardOptions& options = *env.options;
  const int num_shards = static_cast<int>(options.num_shards);
  const int coordinator = num_shards;
  const Stopwatch wall;

  ShardWorkerStats stats;
  stats.shard = env.shard;

  // The worker's root span carries the distributed trace context in its
  // args ("trace=... parent=..."): the stitched multi-pid trace links this
  // span to the coordinator's run span through it.
  char span_name[32];
  std::snprintf(span_name, sizeof(span_name), "shard.worker.%d", env.shard);
  obs::ScopedSpan worker_span(
      span_name, obs::TraceContextArgs(obs::CurrentTraceContext()));

  dataflow::Executor executor(ShardExecutorConfig(options, env.shard));

  auto fail = [&](Status status) {
    stats.status = std::move(status);
    stats.wall_seconds = wall.ElapsedSeconds();
    env.transport->Abort(stats.status);
    return stats;
  };

  const auto consumers = ConsumerEdges(splan);
  std::vector<Dataset> stash(splan.fragments.size());
  // Remaining reads of each fragment's stashed output (forward consumers).
  std::vector<int> forward_refs(splan.fragments.size(), 0);
  for (const Fragment& fragment : splan.fragments) {
    if (!fragment.sharded) continue;
    for (const ExchangeEdge& edge : fragment.inputs) {
      if (edge.kind == ExchangeKind::kForward && edge.producer_fragment >= 0) {
        ++forward_refs[static_cast<size_t>(edge.producer_fragment)];
      }
    }
  }

  for (size_t fi = 0; fi < splan.fragments.size(); ++fi) {
    const Fragment& fragment = splan.fragments[fi];
    if (!fragment.sharded) continue;

    std::map<std::string, Dataset> sub_sources;
    for (size_t e = 0; e < fragment.inputs.size(); ++e) {
      const ExchangeEdge& edge = fragment.inputs[e];
      Dataset input;
      switch (edge.kind) {
        case ExchangeKind::kForward: {
          const size_t producer =
              static_cast<size_t>(edge.producer_fragment);
          if (--forward_refs[producer] == 0) {
            input = std::move(stash[producer]);
            stash[producer].clear();
          } else {
            input = stash[producer];
          }
          break;
        }
        case ExchangeKind::kHash: {
          const bool from_worker =
              edge.producer_fragment >= 0 &&
              splan.fragments[static_cast<size_t>(edge.producer_fragment)]
                  .sharded;
          if (from_worker) {
            // Re-hash: one chunk from every worker, restored to serial
            // order by the tag merge.
            std::vector<Dataset> chunks(static_cast<size_t>(num_shards));
            for (int s = 0; s < num_shards; ++s) {
              auto chunk = env.transport->Recv(edge.channel, s, env.shard);
              if (!chunk.ok()) return fail(chunk.status());
              chunks[static_cast<size_t>(s)] = std::move(chunk).value();
            }
            input = MergeBySeq(std::move(chunks));
          } else {
            auto chunk =
                env.transport->Recv(edge.channel, coordinator, env.shard);
            if (!chunk.ok()) return fail(chunk.status());
            input = std::move(chunk).value();
          }
          break;
        }
        case ExchangeKind::kBroadcast: {
          auto chunk =
              env.transport->Recv(edge.channel, coordinator, env.shard);
          if (!chunk.ok()) return fail(chunk.status());
          input = std::move(chunk).value();
          break;
        }
        case ExchangeKind::kGather:
          return fail(Status::Internal(
              "shard worker saw a gather input on a sharded fragment"));
      }
      stats.records_in += input.size();
      sub_sources["in" + std::to_string(e)] = std::move(input);
    }
    if (fragment.inputs.empty()) sub_sources["in0"] = Dataset();

    Plan sub_plan = BuildFragmentPlan(*env.plan, fragment);
    auto run = executor.Run(sub_plan, sub_sources);
    if (!run.ok()) return fail(run.status());
    for (const auto& op : run->operator_stats) {
      stats.open_seconds += op.open_seconds;
      stats.process_seconds += op.process_seconds;
    }
    stats.task_retries += run->task_retries;
    Dataset output = std::move(run->sink_outputs["out"]);
    stats.records_out += output.size();

    // Outbound side: re-hash and gather sends, then the local stash for
    // forward consumers. `uses` counts hand-offs so only the last moves.
    int uses = forward_refs[fi] > 0 ? 1 : 0;
    for (const auto& [cf, ce] : consumers[fi]) {
      const ExchangeEdge& edge =
          splan.fragments[static_cast<size_t>(cf)].inputs[static_cast<size_t>(ce)];
      if (edge.kind == ExchangeKind::kHash ||
          edge.kind == ExchangeKind::kGather) {
        ++uses;
      }
    }
    if (fragment.sink_gather_channel >= 0) ++uses;
    auto take = [&]() {
      return --uses == 0 ? std::move(output) : Dataset(output);
    };
    for (const auto& [cf, ce] : consumers[fi]) {
      const Fragment& consumer = splan.fragments[static_cast<size_t>(cf)];
      const ExchangeEdge& edge = consumer.inputs[static_cast<size_t>(ce)];
      if (edge.kind == ExchangeKind::kHash && consumer.sharded) {
        Dataset outbound = take();
        // Siblings with equal tags may now split across shards; extend
        // the tag with the emission index so the merge keeps their order.
        ExtendSeqTags(&outbound);
        RecordPartitioner partitioner(options.num_shards, edge.key,
                                      options.ring);
        std::vector<Dataset> parts =
            PartitionDataset(std::move(outbound), partitioner);
        for (int t = 0; t < num_shards; ++t) {
          Status sent = env.transport->Send(edge.channel, env.shard, t,
                                            std::move(parts[static_cast<size_t>(t)]));
          if (!sent.ok()) return fail(sent);
        }
      } else if (edge.kind == ExchangeKind::kGather) {
        Status sent = env.transport->Send(edge.channel, env.shard,
                                          coordinator, take());
        if (!sent.ok()) return fail(sent);
      }
    }
    if (fragment.sink_gather_channel >= 0) {
      Status sent = env.transport->Send(fragment.sink_gather_channel,
                                        env.shard, coordinator, take());
      if (!sent.ok()) return fail(sent);
    }
    if (forward_refs[fi] > 0) stash[fi] = take();
  }

  if (options.per_shard_finish) {
    Status finish = options.per_shard_finish(env.shard);
    if (!finish.ok()) return fail(finish);
  }
  stats.wall_seconds = wall.ElapsedSeconds();
  return stats;
}

/// The coordinator loop: scatters sources and coordinator-fragment outputs
/// to the workers (assigning the serial-order tags), runs the pipeline
/// breakers locally, and merges every gather back into serial order.
Result<std::map<std::string, Dataset>> RunCoordinator(
    const ShardedPlan& splan, const Plan& plan, Transport* transport,
    const ShardOptions& options,
    const std::map<std::string, Dataset>& sources) {
  const int num_shards = static_cast<int>(options.num_shards);
  const int coordinator = num_shards;
  std::map<std::string, Dataset> sink_outputs;

  dataflow::Executor executor(ShardExecutorConfig(options, coordinator));

  auto fail = [&](Status status) -> Status {
    transport->Abort(status);
    return status;
  };

  auto bind_source = [&](const std::string& name) -> Result<Dataset> {
    auto it = sources.find(name);
    if (it == sources.end()) {
      return Status::InvalidArgument("sharded run: unbound source '" + name +
                                     "'");
    }
    return Dataset(it->second);
  };

  // Remaining coordinator-side reads of each coordinator fragment's output:
  // forwards into other coordinator fragments, plus scatters (hash or
  // broadcast) into sharded consumers.
  std::vector<Dataset> stash(splan.fragments.size());
  std::vector<int> forward_refs(splan.fragments.size(), 0);
  for (const Fragment& fragment : splan.fragments) {
    for (const ExchangeEdge& edge : fragment.inputs) {
      if (edge.producer_fragment < 0) continue;
      const Fragment& from =
          splan.fragments[static_cast<size_t>(edge.producer_fragment)];
      if (from.sharded) continue;  // lives in the workers' stash
      const bool reads_stash =
          fragment.sharded
              ? (edge.kind == ExchangeKind::kHash ||
                 edge.kind == ExchangeKind::kBroadcast)
              : edge.kind == ExchangeKind::kForward;
      if (reads_stash) {
        ++forward_refs[static_cast<size_t>(edge.producer_fragment)];
      }
    }
  }

  for (size_t fi = 0; fi < splan.fragments.size(); ++fi) {
    const Fragment& fragment = splan.fragments[fi];
    if (fragment.sharded) {
      // Scatter this fragment's coordinator-side inputs. One running
      // counter across all edges: the tag order is the serial
      // concatenation order the head would see unsharded.
      int64_t next_seq = 0;
      for (const ExchangeEdge& edge : fragment.inputs) {
        if (edge.channel < 0) continue;  // worker-side forward/re-hash
        Dataset outbound;
        if (edge.producer_fragment < 0) {
          auto bound = bind_source(edge.source_name);
          if (!bound.ok()) return fail(bound.status());
          outbound = std::move(bound).value();
        } else {
          const size_t producer =
              static_cast<size_t>(edge.producer_fragment);
          if (splan.fragments[producer].sharded) continue;  // worker side
          if (--forward_refs[producer] == 0) {
            outbound = std::move(stash[producer]);
            stash[producer].clear();
          } else {
            outbound = stash[producer];
          }
        }
        if (edge.kind == ExchangeKind::kHash) {
          TagSerialOrder(&outbound, &next_seq);
          RecordPartitioner partitioner(options.num_shards, edge.key,
                                        options.ring);
          std::vector<Dataset> parts =
              PartitionDataset(std::move(outbound), partitioner);
          for (int t = 0; t < num_shards; ++t) {
            Status sent = transport->Send(edge.channel, coordinator, t,
                                          std::move(parts[static_cast<size_t>(t)]));
            if (!sent.ok()) return fail(sent);
          }
        } else if (edge.kind == ExchangeKind::kBroadcast) {
          TagSerialOrder(&outbound, &next_seq);
          MarkBroadcast(&outbound);
          for (int t = 0; t < num_shards; ++t) {
            Dataset copy =
                t + 1 < num_shards ? Dataset(outbound) : std::move(outbound);
            Status sent =
                transport->Send(edge.channel, coordinator, t, std::move(copy));
            if (!sent.ok()) return fail(sent);
          }
        }
      }
      if (fragment.sink_gather_channel >= 0) {
        std::vector<Dataset> chunks(static_cast<size_t>(num_shards));
        for (int s = 0; s < num_shards; ++s) {
          auto chunk =
              transport->Recv(fragment.sink_gather_channel, s, coordinator);
          if (!chunk.ok()) return fail(chunk.status());
          chunks[static_cast<size_t>(s)] = std::move(chunk).value();
        }
        Dataset merged = MergeBySeq(std::move(chunks));
        StripShardTags(&merged);
        sink_outputs[fragment.sink_name] = std::move(merged);
      }
      continue;
    }

    // Coordinator fragment: gather its shard-side inputs, bind the rest.
    std::map<std::string, Dataset> sub_sources;
    for (size_t e = 0; e < fragment.inputs.size(); ++e) {
      const ExchangeEdge& edge = fragment.inputs[e];
      Dataset input;
      if (edge.kind == ExchangeKind::kGather) {
        std::vector<Dataset> chunks(static_cast<size_t>(num_shards));
        for (int s = 0; s < num_shards; ++s) {
          auto chunk = transport->Recv(edge.channel, s, coordinator);
          if (!chunk.ok()) return fail(chunk.status());
          chunks[static_cast<size_t>(s)] = std::move(chunk).value();
        }
        input = MergeBySeq(std::move(chunks));
        StripShardTags(&input);
      } else if (edge.producer_fragment < 0) {
        auto bound = bind_source(edge.source_name);
        if (!bound.ok()) return fail(bound.status());
        input = std::move(bound).value();
      } else {
        const size_t producer = static_cast<size_t>(edge.producer_fragment);
        if (--forward_refs[producer] == 0) {
          input = std::move(stash[producer]);
          stash[producer].clear();
        } else {
          input = stash[producer];
        }
      }
      sub_sources["in" + std::to_string(e)] = std::move(input);
    }
    if (fragment.inputs.empty()) sub_sources["in0"] = Dataset();
    Plan sub_plan = BuildFragmentPlan(plan, fragment);
    auto run = executor.Run(sub_plan, sub_sources);
    if (!run.ok()) return fail(run.status());
    Dataset output = std::move(run->sink_outputs["out"]);
    if (!fragment.sink_name.empty()) {
      sink_outputs[fragment.sink_name] =
          forward_refs[fi] > 0 ? Dataset(output) : std::move(output);
      if (forward_refs[fi] > 0) stash[fi] = std::move(output);
    } else if (forward_refs[fi] > 0) {
      stash[fi] = std::move(output);
    }
  }

  // Sources marked directly as sinks pass through untouched.
  for (const auto& node : plan.nodes()) {
    if (node.is_source() && !node.sink_name.empty()) {
      auto bound = bind_source(node.source_name);
      if (!bound.ok()) return fail(bound.status());
      sink_outputs[node.sink_name] = std::move(bound).value();
    }
  }
  return sink_outputs;
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
  uint64_t worker_records = 0;
  for (const ShardWorkerStats& w : result->workers) {
    worker_records += w.records_in;
    registry.GetHistogram("wsie.shard.worker.wall_ns")
        ->Observe(w.wall_seconds * 1e9);
  }
  registry.GetCounter("wsie.shard.worker.records")->Add(worker_records);
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

  // Per-shard skew report (both execution modes): each worker's share of
  // the records, the fig5 load-balance table.
  uint64_t total_in = 0, max_in = 0;
  for (const ShardWorkerStats& w : result->workers) {
    total_in += w.records_in;
    max_in = std::max(max_in, w.records_in);
  }
  for (const ShardWorkerStats& w : result->workers) {
    ShardSkewRow row;
    row.shard = w.shard;
    row.records_in = w.records_in;
    row.process_seconds = w.process_seconds;
    row.share = total_in == 0
                    ? 0.0
                    : static_cast<double>(w.records_in) /
                          static_cast<double>(total_in);
    result->obs.skew.push_back(row);
  }
  std::sort(result->obs.skew.begin(), result->obs.skew.end(),
            [](const ShardSkewRow& a, const ShardSkewRow& b) {
              return a.shard < b.shard;
            });
  const double mean_in =
      result->workers.empty()
          ? 0.0
          : static_cast<double>(total_in) /
                static_cast<double>(result->workers.size());
  registry.GetGauge("wsie.shard.skew.records")
      ->Set(mean_in == 0.0 ? 0.0
                           : static_cast<double>(max_in) / mean_in);

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
  InProcessTransport transport(num_shards, options_.transport_timeout);

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
    WorkerEnv env;
    env.shard = static_cast<int>(s);
    env.splan = &splan;
    env.plan = &worker_plans[s];
    env.transport = &transport;
    env.options = &options_;
    result.workers[s] = RunShardWorker(env);
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

  // Prefer a concrete worker failure over the knock-on Abort the
  // coordinator (or its peers) observed.
  for (const ShardWorkerStats& w : result.workers) {
    if (!w.status.ok()) return w.status;
  }
  if (!coordinator_result.ok()) return coordinator_result.status();
  result.sink_outputs = std::move(coordinator_result).value();

  const TransportStats tstats = transport.Stats();
  result.rows_shuffled = tstats.rows;
  result.bytes_moved = tstats.bytes;
  result.exchange_messages = tstats.messages;
  result.max_hash_skew = tstats.max_hash_skew;
  return result;
}

Result<ShardExecutionResult> ShardRuntime::RunMultiProcess(
    const PlanFactory& factory, const ShardedPlan& splan,
    const Plan& coordinator_plan,
    const std::map<std::string, Dataset>& sources) const {
  const size_t num_shards = options_.num_shards;
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
      SocketTransport child_transport(child_fds[s], num_shards);
      Plan child_plan = factory(static_cast<int>(s));
      WorkerEnv env;
      env.shard = static_cast<int>(s);
      env.splan = &splan;
      env.plan = &child_plan;
      env.transport = &child_transport;
      env.options = &options_;
      ShardWorkerStats stats = RunShardWorker(env);
      Frame frame;
      frame.channel = kStatsChannel;
      frame.from = static_cast<int>(s);
      frame.to = static_cast<int>(num_shards);
      EncodeDataset({stats.ToRecord()}, &frame.payload);
      frame.rows = 1;
      WriteFrame(child_fds[s], frame);
      if (options_.collect_obs) {
        // The CollectRemote hop: this worker's metrics snapshot and trace
        // streams, captured after the worker span closed, shipped as one
        // checksummed blob on the obs control channel.
        Frame obs_frame;
        obs_frame.channel = kObsChannel;
        obs_frame.from = static_cast<int>(s);
        obs_frame.to = static_cast<int>(num_shards);
        EncodeDataset({BlobRecord(obs::EncodeObsBundle(
                          obs::CaptureObsBundle(static_cast<int>(s))))},
                      &obs_frame.payload);
        obs_frame.rows = 1;
        WriteFrame(child_fds[s], obs_frame);
      }
      ::close(child_fds[s]);
      ::_exit(stats.status.ok() ? 0 : 1);
    }
    children[s] = pid;
  }
  for (size_t s = 0; s < num_shards; ++s) ::close(child_fds[s]);

  ShardExecutionResult result;
  Status failure;
  {
    HubTransport hub(parent_fds, options_.transport_timeout);  // owns fds
    auto coordinator_result =
        RunCoordinator(splan, coordinator_plan, &hub, options_, sources);
    if (coordinator_result.ok()) {
      result.sink_outputs = std::move(coordinator_result).value();
      for (size_t s = 0; s < num_shards; ++s) {
        auto stats_chunk =
            hub.Recv(kStatsChannel, static_cast<int>(s),
                     static_cast<int>(num_shards));
        if (!stats_chunk.ok()) {
          failure = stats_chunk.status();
          break;
        }
        if (stats_chunk->size() != 1) {
          failure = Status::Internal("malformed worker stats frame");
          break;
        }
        ShardWorkerStats stats =
            ShardWorkerStats::FromRecord(stats_chunk->front());
        if (!stats.status.ok() && failure.ok()) failure = stats.status;
        result.workers.push_back(std::move(stats));
      }
      if (failure.ok() && options_.collect_obs) {
        for (size_t s = 0; s < num_shards; ++s) {
          auto obs_chunk = hub.Recv(kObsChannel, static_cast<int>(s),
                                    static_cast<int>(num_shards));
          if (!obs_chunk.ok()) {
            failure = obs_chunk.status();
            break;
          }
          if (obs_chunk->size() != 1) {
            failure = Status::Internal("malformed obs bundle frame");
            break;
          }
          auto blob = BlobFromRecord(obs_chunk->front());
          if (!blob.ok()) {
            failure = blob.status();
            break;
          }
          result.obs.bundle_bytes += blob->size();
          auto bundle = obs::DecodeObsBundle(*blob);
          if (!bundle.ok()) {
            failure = bundle.status();
            break;
          }
          // Clock re-base handshake: the bundle carries the sender's
          // NowNs() at encode time; the receiver-side offset maps the
          // worker's timestamps into the coordinator's domain (error is
          // bounded by the transfer latency).
          const int64_t offset =
              static_cast<int64_t>(obs::TraceRecorder::Global().NowNs()) -
              static_cast<int64_t>(bundle->now_ns);
          result.obs.offsets_ns.push_back(offset);
          result.obs.per_shard.push_back(std::move(bundle).value());
        }
        if (failure.ok()) result.obs.collected = true;
      }
    } else {
      failure = coordinator_result.status();
    }
    const TransportStats tstats = hub.Stats();
    result.rows_shuffled = tstats.rows;
    result.bytes_moved = tstats.bytes;
    result.exchange_messages = tstats.messages;
    result.max_hash_skew = tstats.max_hash_skew;
    // HubTransport's destructor closes every fd here, which unblocks any
    // child still waiting in Recv so the reap below cannot hang.
  }
  for (size_t s = 0; s < num_shards; ++s) {
    int wstatus = 0;
    ::waitpid(children[s], &wstatus, 0);
  }
  if (!failure.ok()) return failure;
  return result;
}

}  // namespace wsie::shard
