#include "dataflow/executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/stopwatch.h"
#include "dataflow/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wsie::dataflow {
namespace {

/// Registry handles for the executor's run-level metrics, resolved once.
struct ExecMetrics {
  obs::Counter* open_cold;
  obs::Counter* open_cached;
  obs::Counter* task_retries;
  obs::Counter* runs;
  obs::Gauge* morsel_queue_depth;
  obs::Histogram* run_wall_ns;
  obs::Histogram* stage_wall_ns;
};

ExecMetrics& GetExecMetrics() {
  static ExecMetrics* metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    auto* m = new ExecMetrics();
    m->open_cold = registry.GetCounter("wsie.dataflow.open.cold");
    m->open_cached = registry.GetCounter("wsie.dataflow.open.cached");
    m->task_retries = registry.GetCounter("wsie.dataflow.task.retries");
    m->runs = registry.GetCounter("wsie.dataflow.runs");
    m->morsel_queue_depth =
        registry.GetGauge("wsie.dataflow.morsel.queue_depth");
    m->run_wall_ns = registry.GetHistogram("wsie.dataflow.run.wall_ns");
    m->stage_wall_ns = registry.GetHistogram("wsie.dataflow.stage.wall_ns");
    return m;
  }();
  return *metrics;
}

/// Mirrors one operator's per-run stats into labeled registry counters.
/// Called once per operator per Run() — the hot loop only touches the
/// OpState atomics, never the registry.
void PublishOperatorStats(const OperatorRunStats& stats) {
  if (!obs::MetricsEnabled()) return;
  auto& registry = obs::MetricsRegistry::Global();
  auto counter = [&](std::string_view field, uint64_t value) {
    registry
        .GetCounter(obs::WithLabel(
            std::string("wsie.dataflow.operator.") + std::string(field), "op",
            stats.name))
        ->Add(value);
  };
  counter("records_in", stats.records_in);
  counter("records_out", stats.records_out);
  counter("bytes_out", stats.bytes_out);
  counter("process_ns",
          static_cast<uint64_t>(stats.process_seconds * 1e9));
  counter("morsels", stats.morsels);
}

/// Process-wide cache of successful operator Open() calls, keyed by operator
/// identity. Entries hold a shared_ptr to the operator, so a cached operator
/// can never be destroyed and re-allocated at the same address (no ABA).
/// Failed opens are not cached — the next run retries.
class OpenCache {
 public:
  static OpenCache& Instance() {
    static OpenCache* cache = new OpenCache();  // never destroyed
    return *cache;
  }

  /// Opens `op` exactly once process-wide. On a cache hit sets *cached and
  /// leaves *seconds at 0. Concurrent callers for the same operator
  /// serialize on a per-entry mutex, so Open() never runs twice.
  Status OpenOnce(const OperatorPtr& op, bool* cached, double* seconds) {
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, inserted] = entries_.try_emplace(op.get());
      if (inserted) it->second = std::make_shared<Entry>();
      entry = it->second;
      entry->op = op;
    }
    std::unique_lock<std::mutex> entry_lock(entry->mu);
    if (entry->opened) {
      *cached = true;
      return Status::OK();
    }
    Stopwatch timer;
    Status status = op->Open();
    *seconds = timer.ElapsedSeconds();
    *cached = false;
    if (status.ok()) {
      entry->opened = true;
      return status;
    }
    entry_lock.unlock();
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(op.get());
    return status;
  }

  void Clear() {
    std::unordered_map<const Operator*, std::shared_ptr<Entry>> drained;
    {
      std::lock_guard<std::mutex> lock(mu_);
      drained.swap(entries_);
    }
    for (auto& [ptr, entry] : drained) {
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      if (entry->opened) entry->op->Close();
    }
  }

 private:
  struct Entry {
    OperatorPtr op;
    std::mutex mu;
    bool opened = false;
  };

  std::mutex mu_;
  std::unordered_map<const Operator*, std::shared_ptr<Entry>> entries_;
};

/// Per-operator accumulators shared by the morsel workers.
struct OpState {
  OperatorPtr op;
  std::atomic<uint64_t> records_in{0};
  std::atomic<uint64_t> records_out{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> process_nanos{0};
  std::atomic<uint64_t> morsels{0};
  double open_seconds = 0.0;
  bool open_cached = false;
};

}  // namespace

Executor::Executor(ExecutorConfig config)
    : config_(std::move(config)),
      pool_(config_.pool ? config_.pool
                         : std::make_shared<ThreadPool>(config_.dop)) {}

void Executor::ClearOpenCache() { OpenCache::Instance().Clear(); }

Status Executor::CheckMemoryBudget(const Plan& plan) const {
  // Admission control: verify the memory budget before running anything.
  // All operators of one flow are co-resident per worker (the paper's
  // scheduler "does not consider memory consumption per worker node",
  // Sect. 4.2 — this check is what it lacked), so both each operator and
  // the flow-wide sum must fit.
  if (config_.memory_per_worker_budget == 0) return Status::OK();
  size_t flow_total = 0;
  for (const Plan::Node& node : plan.nodes()) {
    if (node.is_source()) continue;
    size_t need = node.op->MemoryBytesPerWorker();
    flow_total += need;
    if (need > config_.memory_per_worker_budget) {
      return Status::ResourceExhausted(
          "operator '" + node.op->name() + "' needs " + std::to_string(need) +
          " bytes/worker, budget is " +
          std::to_string(config_.memory_per_worker_budget));
    }
  }
  if (flow_total > config_.memory_per_worker_budget) {
    return Status::ResourceExhausted(
        "flow needs " + std::to_string(flow_total) +
        " bytes/worker in total, budget is " +
        std::to_string(config_.memory_per_worker_budget) +
        "; split the flow (Sect. 4.2)");
  }
  return Status::OK();
}

Result<ExecutionResult> Executor::Run(
    const Plan& plan, const std::map<std::string, Dataset>& sources) const {
  Status admitted = CheckMemoryBudget(plan);
  if (!admitted.ok()) return admitted;
  Stopwatch total_timer;
  WSIE_TRACE_SPAN("dataflow.run");
  ExecutionResult result;
  const std::vector<Plan::Node>& nodes = plan.nodes();

  // Each node's output is either borrowed (sources — zero copy) or owned
  // (stage tails). Fused interior nodes never materialize anything.
  struct NodeData {
    const Dataset* borrowed = nullptr;
    Dataset owned;
    std::span<const Record> view() const {
      if (borrowed != nullptr) return {borrowed->data(), borrowed->size()};
      return {owned.data(), owned.size()};
    }
  };
  std::vector<NodeData> data(nodes.size());

  // Consumer counts for early release of intermediates.
  std::vector<int> remaining(nodes.size(), 0);
  {
    std::vector<std::vector<int>> consumers = plan.Consumers();
    for (size_t i = 0; i < nodes.size(); ++i) {
      remaining[i] = static_cast<int>(consumers[i].size());
    }
  }

  // Bind sources as borrowed views — no copy.
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].is_source()) continue;
    auto it = sources.find(nodes[i].source_name);
    if (it == sources.end()) {
      return Status::NotFound("source '" + nodes[i].source_name +
                              "' not bound");
    }
    data[i].borrowed = &it->second;
  }

  const std::vector<FusionGroup> groups =
      Optimizer::ComputeFusionGroups(plan, config_.fuse_pipelines);
  const size_t morsel_size = std::max<size_t>(config_.morsel_records, 1);

  for (const FusionGroup& group : groups) {
    const Plan::Node& head = nodes[static_cast<size_t>(group.nodes[0])];
    const int tail_id = group.nodes.back();

    // Zero-copy union of the head's inputs: a list of chunk views, never a
    // concatenated Dataset. A chunk whose upstream Dataset is owned by this
    // run, is not a sink output, and has no other consumer left is dead
    // after this stage — the head may consume it destructively, moving
    // records instead of copying them.
    struct Chunk {
      std::span<const Record> view;
      Record* movable = nullptr;  // non-null: exclusively owned, may move
    };
    std::vector<Chunk> chunks;
    uint64_t stage_records_in = 0;
    for (int in : head.inputs) {
      auto idx = static_cast<size_t>(in);
      std::span<const Record> view = data[idx].view();
      stage_records_in += view.size();
      if (view.empty()) continue;
      Chunk chunk;
      chunk.view = view;
      // Destructive head moves are off under task retries: a re-run needs
      // the morsel's input records intact.
      if (config_.max_task_retries == 0 && data[idx].borrowed == nullptr &&
          nodes[idx].sink_name.empty() && remaining[idx] == 1) {
        chunk.movable = data[idx].owned.data();
      }
      chunks.push_back(chunk);
    }

    // Start-up phase: serial, not amortized by DoP (Fig. 5), but amortized
    // across Run() calls by the process-wide cache.
    std::vector<std::unique_ptr<OpState>> ops;
    ops.reserve(group.nodes.size());
    for (int id : group.nodes) {
      auto state = std::make_unique<OpState>();
      state->op = nodes[static_cast<size_t>(id)].op;
      Status open_status;
      if (config_.cache_opens) {
        open_status = OpenCache::Instance().OpenOnce(
            state->op, &state->open_cached, &state->open_seconds);
      } else {
        Stopwatch open_timer;
        open_status = state->op->Open();
        state->open_seconds = open_timer.ElapsedSeconds();
      }
      if (!open_status.ok()) return open_status;
      // ExecutionResult keeps the authoritative per-run tallies (tests
      // assert on them); the registry mirrors the same increment so there
      // is exactly one counting site.
      if (state->open_cached) {
        ++result.open_cached;
        GetExecMetrics().open_cached->Increment();
      } else {
        ++result.open_cold;
        GetExecMetrics().open_cold->Increment();
      }
      ops.push_back(std::move(state));
    }
    const size_t num_ops = ops.size();

    // Morsel descriptors: fixed-size index ranges over the input chunks.
    // Workers claim them from a shared cursor, so a skewed chunk (one long
    // PMC full text among short Medline abstracts, Fig. 6) cannot straggle
    // a static pre-split.
    struct Morsel {
      size_t chunk;
      size_t begin;
      size_t end;
    };
    std::vector<Morsel> morsels;
    for (size_t c = 0; c < chunks.size(); ++c) {
      size_t n = chunks[c].view.size();
      for (size_t begin = 0; begin < n; begin += morsel_size) {
        morsels.push_back({c, begin, std::min(begin + morsel_size, n)});
      }
    }

    std::vector<Dataset> morsel_outputs(morsels.size());
    std::mutex error_mu;
    Status first_error;
    std::atomic<uint64_t> stage_task_retries{0};
    std::atomic<size_t> morsels_left{morsels.size()};
    // Sharded workers (shard::ShardRuntime) tag their spans with the shard
    // id so per-shard timelines separate in the Chrome trace.
    const std::string span_suffix =
        config_.shard_id >= 0
            ? head.op->name() + ":s" + std::to_string(config_.shard_id)
            : head.op->name();
    const std::string stage_span_name = "dataflow.stage:" + span_suffix;
    const std::string morsel_span_name = "dataflow.morsel:" + span_suffix;
    WSIE_TRACE_SPAN(stage_span_name);
    Stopwatch stage_timer;

    pool_->MorselFor(
        morsels.size(), config_.dop, [&](size_t m) -> bool {
          WSIE_TRACE_SPAN(morsel_span_name);
          GetExecMetrics().morsel_queue_depth->Set(static_cast<double>(
              morsels_left.fetch_sub(1, std::memory_order_relaxed) - 1));
          const Morsel& mo = morsels[m];
          const Chunk& chunk = chunks[mo.chunk];
          std::span<const Record> input =
              chunk.view.subspan(mo.begin, mo.end - mo.begin);
          // Task-level recovery loop: each attempt streams the pristine
          // input span through the whole chain with fresh scratch buffers,
          // so a retry observes exactly the state the first attempt did.
          // Open() state (including process-wide cached opens) is reused.
          for (int attempt = 0;; ++attempt) {
            // Ping-pong scratch buffers: op k reads one, writes the other.
            Dataset scratch[2];
            int cur = -1;  // -1: the borrowed input span
            Status chain_status;
            for (size_t k = 0; k < num_ops; ++k) {
              OpState& os = *ops[k];
              int dst_idx = cur == 0 ? 1 : 0;
              Dataset* dst = &scratch[dst_idx];
              dst->clear();
              Stopwatch op_timer;
              Status status;
              uint64_t in_count;
              if (cur < 0) {
                in_count = input.size();
                if (chunk.movable != nullptr) {
                  // Stage head over a dying intermediate: workers own
                  // disjoint subranges, so moving records out is race-free
                  // (never taken when retries are enabled).
                  status = os.op->ProcessOwned(
                      std::span<Record>(chunk.movable + mo.begin,
                                        mo.end - mo.begin),
                      dst);
                } else {
                  // Stage head over borrowed/shared upstream data: zero-copy
                  // read-only view.
                  status = os.op->ProcessSpan(input, dst);
                }
              } else {
                // Fused interior: the previous scratch buffer is dead after
                // this call, so the operator may move records through.
                Dataset& src = scratch[cur];
                in_count = src.size();
                status = os.op->ProcessOwned(
                    std::span<Record>(src.data(), src.size()), dst);
              }
              if (!status.ok()) {
                chain_status = status;
                break;
              }
              uint64_t bytes = 0;
              for (const Record& r : *dst) bytes += r.ByteSize();
              os.records_in.fetch_add(in_count, std::memory_order_relaxed);
              os.records_out.fetch_add(dst->size(), std::memory_order_relaxed);
              os.bytes_out.fetch_add(bytes, std::memory_order_relaxed);
              os.process_nanos.fetch_add(
                  static_cast<uint64_t>(op_timer.ElapsedSeconds() * 1e9),
                  std::memory_order_relaxed);
              os.morsels.fetch_add(1, std::memory_order_relaxed);
              cur = dst_idx;
            }
            if (chain_status.ok()) {
              morsel_outputs[m] = std::move(scratch[cur]);
              return true;
            }
            if (chain_status.IsRetryable() &&
                attempt < config_.max_task_retries) {
              stage_task_retries.fetch_add(1, std::memory_order_relaxed);
              continue;  // re-run only this morsel's stage
            }
            std::lock_guard<std::mutex> lock(error_mu);
            if (first_error.ok()) first_error = chain_status;
            return false;  // cancels: unclaimed morsels never run
          }
        });
    result.task_retries += stage_task_retries.load();
    GetExecMetrics().task_retries->Add(stage_task_retries.load());
    if (!config_.cache_opens) {
      for (auto& os : ops) os->op->Close();
    }
    if (!first_error.ok()) return first_error;

    // Materialize the stage tail in morsel order: output is deterministic
    // across DoP and morsel size for record-at-a-time chains.
    Dataset& output = data[static_cast<size_t>(tail_id)].owned;
    size_t total_out = 0;
    for (const Dataset& part : morsel_outputs) total_out += part.size();
    output.reserve(total_out);
    for (Dataset& part : morsel_outputs) {
      for (Record& r : part) output.push_back(std::move(r));
    }
    double stage_wall = stage_timer.ElapsedSeconds();
    GetExecMetrics().stage_wall_ns->Observe(stage_wall * 1e9);

    // Per-operator stats (the pre-fusion contract the benches consume).
    StageRunStats stage;
    stage.operators = num_ops;
    stage.fused = num_ops > 1;
    stage.morsels = morsels.size();
    stage.records_in = stage_records_in;
    stage.records_out = output.size();
    stage.wall_seconds = stage_wall;
    for (size_t k = 0; k < num_ops; ++k) {
      const OpState& os = *ops[k];
      OperatorRunStats stats;
      stats.name = os.op->name();
      stats.records_in = os.records_in.load();
      stats.records_out = os.records_out.load();
      stats.bytes_out = os.bytes_out.load();
      stats.open_seconds = os.open_seconds;
      stats.process_seconds = static_cast<double>(os.process_nanos.load()) / 1e9;
      stats.morsels = os.morsels.load();
      stats.open_cached = os.open_cached;
      if (!stage.name.empty()) stage.name += '+';
      stage.name += stats.name;
      if (k + 1 == num_ops) {
        stage.bytes_materialized = stats.bytes_out;
        result.total_bytes_materialized += stats.bytes_out;
      } else {
        stage.bytes_not_materialized += stats.bytes_out;
        result.total_bytes_streamed += stats.bytes_out;
      }
      PublishOperatorStats(stats);
      result.operator_stats.push_back(std::move(stats));
    }
    result.stage_stats.push_back(std::move(stage));

    // Early release: drop an upstream output once every consuming stage has
    // run. Sink outputs and borrowed sources are kept.
    for (int in : head.inputs) {
      auto idx = static_cast<size_t>(in);
      if (--remaining[idx] == 0 && nodes[idx].sink_name.empty() &&
          data[idx].borrowed == nullptr) {
        Dataset().swap(data[idx].owned);
      }
    }
  }

  // Fill sinks last so downstream consumers saw the data first; owned
  // outputs are moved, not copied.
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].sink_name.empty()) continue;
    if (data[i].borrowed != nullptr) {
      result.sink_outputs[nodes[i].sink_name] = *data[i].borrowed;
    } else {
      result.sink_outputs[nodes[i].sink_name] = std::move(data[i].owned);
    }
  }

  result.total_seconds = total_timer.ElapsedSeconds();
  GetExecMetrics().runs->Increment();
  GetExecMetrics().run_wall_ns->Observe(result.total_seconds * 1e9);
  return result;
}

}  // namespace wsie::dataflow
