// serve_rw: reads beside writes. The store is seeded with generated,
// Zipf-skewed postings over the entity lexicon, large enough that every
// compaction merges megabytes. Two closed-loop clients submit a fixed
// request mix through the AdmissionQueue (one worker) while one writer
// runs a fixed script: Append, Append, Compact, and every fourth cycle
// BuildVectorIndex. Each round starts from a copy of the seeded store, so
// every round does the same writes. nlp and crawler stay idle.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "corpus/lexicon.h"
#include "obs/metrics.h"
#include "postings_gen.h"
#include "serve/admission_queue.h"
#include "serve/query_engine.h"
#include "store/annotation_store.h"
#include "workloads.h"

namespace wsie::perfbench {

namespace {

using Request = serve::QueryEngine::Request;
using Kind = Request::Kind;

constexpr int kSetupReps = 5;
// Zipf exponent of both the seeded postings and the request names; the
// request skew of bench/serve_loadgen.cc.
constexpr double kZipf = 1.1;
constexpr size_t kClients = 2;
// Names drawn from the lexicon. Every compaction rebuilds the vector index
// over all of them, so this bounds the rebuild to well under a second.
constexpr size_t kVocabulary = 1200;
// Seeded store: kBaseSegments appends of kBasePostings each, compacted
// into one segment with a vector index.
constexpr size_t kBaseSegments = 4;
constexpr size_t kBasePostings = 150000;
// Writer script, per cycle: two appends of kAppendPostings generated
// postings plus kFreshNames new surface forms (lexicon name + cycle tag)
// with kFreshPostings each, which sit in the vector index's append delta
// until the compaction's index rebuild.
constexpr size_t kAppendPostings = 5000;
constexpr size_t kFreshNames = 16;
constexpr size_t kFreshPostings = 3;
constexpr uint64_t kBuildEvery = 4;
// Each round runs the writer script once from a fresh copy of the seeded
// store, so every round does identical writes.
constexpr uint64_t kCyclesPerRound = 4;
// Oracle sample: the hottest names plus every kOracleStride-th rank.
constexpr size_t kOracleHead = 200;
constexpr size_t kOracleStride = 7;
constexpr size_t kTopK = 20;
// In traced rounds client 0 also runs every kDirectEvery-th of its requests
// straight on the round's QueryEngine, right after its Submit returns.
constexpr uint64_t kDirectEvery = 2;

constexpr Kind kKinds[] = {Kind::kLookup, Kind::kPrefix,       Kind::kFrequency,
                           Kind::kTopK,   Kind::kCoOccurrence, Kind::kSimilar};
constexpr const char* kKindNames[] = {"lookup", "prefix",       "frequency",
                                      "topk",   "cooccurrence", "similar"};
constexpr size_t kNumKinds = 6;

/// The fixed request mix, as cumulative percentages per kind. The four
/// kinds bench/serve_loadgen.cc sends keep its ratios (60 lookup : 15
/// prefix : 10 top-k : 15 co-occurrence) scaled to 80%: 48/12/8/12.
/// Frequency and Similar, which that load generator never sends, get 10%
/// each. Those two shares are an assumption: no trace of real traffic
/// exists to derive them from.
constexpr int kMixCumulative[kNumKinds] = {48, 60, 70, 78, 90, 100};

/// Deterministic request stream of one client.
class RequestStream {
 public:
  RequestStream(const std::vector<TypedName>* names, uint64_t seed)
      : names_(names), rng_(seed) {}

  Request Next() {
    Request r;
    const int u = static_cast<int>(rng_.Uniform(100));
    size_t k = 0;
    while (u >= kMixCumulative[k]) ++k;
    r.kind = kKinds[k];
    r.name = Name();
    // Filters, prefix length and limits as in bench/serve_loadgen.cc: a
    // sixth of lookups filter by corpus, half of the top-k by type.
    switch (r.kind) {
      case Kind::kLookup:
        if (u < kMixCumulative[0] / 6) {
          r.filter.corpus = static_cast<int>(rng_.Uniform(store::kNumCorpora));
        }
        break;
      case Kind::kPrefix:
        r.name = r.name.substr(0, 3);
        r.limit = 20;
        break;
      case Kind::kFrequency:
        r.corpus = static_cast<int>(rng_.Uniform(store::kNumCorpora));
        r.type = static_cast<int>(rng_.Uniform(store::kNumTypes));
        break;
      case Kind::kTopK:
        r.limit = 10;
        if (u < (kMixCumulative[2] + kMixCumulative[3]) / 2) {
          r.filter.type = static_cast<int>(rng_.Uniform(store::kNumTypes));
        }
        break;
      case Kind::kCoOccurrence:
        r.name_b = Name();
        break;
      case Kind::kSimilar:
        r.limit = 10;
        break;
    }
    return r;
  }

 private:
  const std::string& Name() {
    return (*names_)[rng_.Zipf(names_->size(), kZipf)].name;
  }

  const std::vector<TypedName>* names_;
  Rng rng_;
};

size_t KindIndex(Kind kind) {
  for (size_t i = 0; i < kNumKinds; ++i) {
    if (kKinds[i] == kind) return i;
  }
  return 0;
}

/// The seeded store every round starts from: a closed store directory plus
/// what the generator says it holds.
struct SeededStore {
  std::unique_ptr<PostingsGenerator> generator;
  ExpectedCounts expected;
  std::string dir;
};

Status SeedStore(const corpus::EntityLexicons& lexicons, uint64_t seed,
                 const std::string& dir, SeededStore* seeded) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  seeded->dir = dir;
  seeded->generator = std::make_unique<PostingsGenerator>(
      NormalizedVocabulary(lexicons.genes(), lexicons.drugs(),
                           lexicons.diseases()),
      seed, kZipf, kVocabulary);
  seeded->expected = ExpectedCounts();
  auto opened = store::AnnotationStore::Open(dir);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<store::AnnotationStore> annotations = *opened;
  for (uint64_t b = 0; b < kBaseSegments; ++b) {
    const auto batch = seeded->generator->Batch(b, kBasePostings);
    store::SegmentBuilder builder;
    AddPostings(batch, seeded->generator->names(), &builder);
    builder.AddCorpusStats(static_cast<uint8_t>(b % store::kNumCorpora),
                           kBasePostings / 4, kBasePostings / 2,
                           kBasePostings * 40);
    seeded->expected.Add(batch);
    Status appended = annotations->Append(std::move(builder));
    if (!appended.ok()) return appended;
  }
  Status compacted = annotations->Compact();
  if (!compacted.ok()) return compacted;
  return annotations->BuildVectorIndex();
}

/// A round's private copy of the seeded store, and the tally it must match.
struct RoundState {
  const PostingsGenerator* generator = nullptr;
  std::vector<TypedName> names;  ///< generator names, then fresh names
  ExpectedCounts expected;
  std::shared_ptr<store::AnnotationStore> store;
};

/// Copies the seeded store to `dir` and opens the copy.
Status OpenRound(const SeededStore& seeded, const std::string& dir,
                 RoundState* round) {
  {
    Span s("bench.copy");
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::copy(seeded.dir, dir,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) return Status::Internal("copy seeded store: " + ec.message());
  }
  Span s("store.open");
  auto opened = store::AnnotationStore::Open(dir);
  if (!opened.ok()) return opened.status();
  round->generator = seeded.generator.get();
  round->names = seeded.generator->names();
  round->expected = seeded.expected;
  round->store = *opened;
  return Status::OK();
}

/// One compaction pass or vector rebuild, as the writer saw it.
struct WritePass {
  uint64_t cycle = 0;
  bool is_build = false;
  double wall_s = 0.0;
  // Registry diffs; filled in traced runs only.
  double stitch_s = 0.0;
  double partition_s = 0.0;
  double vec_rebuild_s = 0.0;
  double partitions = 0.0;
};

/// One writer cycle, in seconds since the round started.
struct CycleRecord {
  double start_s = 0.0;
  double end_s = 0.0;
  uint64_t bytes = 0;
};

struct WriterResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t appends = 0;
  double append_s = 0.0;
  std::vector<CycleRecord> cycles;
  std::vector<WritePass> passes;
  /// wsie.vec.index.stale_terms after each append; traced runs only.
  std::vector<double> stale_terms;
};

double HistogramSum(const obs::MetricsSnapshot& snapshot, const char* name) {
  const auto* h = snapshot.FindHistogram(name);
  return h == nullptr ? 0.0 : h->sum;
}

/// The writer's fixed script: kCyclesPerRound cycles of Append, Append,
/// Compact, with BuildVectorIndex closing every kBuildEvery-th cycle. Sets
/// `done` when the script ends.
void RunWriter(RoundState* round, std::atomic<bool>* done,
               Clock::time_point round_start, uint64_t root_id, bool traced,
               WriterResult* out) {
  Span thread_root("root.writer", root_id, 0);
  auto& registry = obs::MetricsRegistry::Global();
  const obs::Gauge* stale_terms =
      registry.GetGauge("wsie.vec.index.stale_terms");
  auto since_start = [&] { return SecondsSince(round_start); };
  for (uint64_t cycle = 0; cycle < kCyclesPerRound; ++cycle) {
    CycleRecord record;
    record.start_s = since_start();
    for (uint64_t j = 0; j < 2; ++j) {
      store::SegmentBuilder builder;
      {
        Span s("bench.generate");
        auto batch = round->generator->Batch(kBaseSegments + 2 * cycle + j,
                                             kAppendPostings);
        if (j == 0) {
          // Fresh surface forms: new terms the vector index has not seen.
          const size_t vocabulary = round->generator->names().size();
          for (size_t f = 0; f < kFreshNames; ++f) {
            const TypedName& base =
                round->names[(cycle * kFreshNames + f) % vocabulary];
            const auto index = static_cast<uint32_t>(round->names.size());
            round->names.push_back(
                {base.name + " v" + std::to_string(cycle), base.type});
            for (size_t p = 0; p < kFreshPostings; ++p) {
              GeneratedPosting posting;
              posting.name = index;
              posting.corpus = static_cast<uint8_t>(p % store::kNumCorpora);
              posting.posting.doc_id = (uint64_t{1} << 62) + cycle * 4096 +
                                       f * kFreshPostings + p;
              batch.push_back(posting);
            }
          }
        }
        AddPostings(batch, round->names, &builder);
        round->expected.Add(batch);
      }
      const uint64_t bytes_before = round->store->total_bytes();
      const auto append_start = Clock::now();
      Status appended;
      {
        Span s("store.append");
        appended = round->store->Append(std::move(builder));
      }
      out->append_s += SecondsSince(append_start);
      ++out->appends;
      ++out->ops;
      if (!appended.ok()) {
        ++out->failed;
        std::fprintf(stderr, "append failed: %s\n",
                     appended.ToString().c_str());
        continue;
      }
      record.bytes += round->store->total_bytes() - bytes_before;
      if (traced) out->stale_terms.push_back(stale_terms->Value());
    }
    for (bool is_build : {false, true}) {
      if (is_build && cycle % kBuildEvery != kBuildEvery - 1) continue;
      WritePass pass;
      pass.cycle = cycle;
      pass.is_build = is_build;
      obs::MetricsSnapshot before;
      if (traced) {
        Span s("obs.snapshot");
        before = registry.Snapshot();
      }
      const auto pass_start = Clock::now();
      Status status;
      if (is_build) {
        Span s("vec.build");
        status = round->store->BuildVectorIndex();
      } else {
        Span s("store.compact");
        status = round->store->Compact();
      }
      pass.wall_s = SecondsSince(pass_start);
      ++out->ops;
      if (!status.ok()) {
        ++out->failed;
        std::fprintf(stderr, "%s failed: %s\n",
                     is_build ? "index build" : "compaction",
                     status.ToString().c_str());
      }
      if (traced) {
        Span s("obs.snapshot");
        const obs::MetricsSnapshot after = registry.Snapshot();
        pass.stitch_s =
            (HistogramSum(after, "wsie.store.compact.stitch_wall_ns") -
             HistogramSum(before, "wsie.store.compact.stitch_wall_ns")) /
            1e9;
        pass.partition_s =
            (HistogramSum(after, "wsie.store.compact.partition_wall_ns") -
             HistogramSum(before, "wsie.store.compact.partition_wall_ns")) /
            1e9;
        pass.vec_rebuild_s = (HistogramSum(after, "wsie.vec.build.wall_ns") -
                              HistogramSum(before, "wsie.vec.build.wall_ns")) /
                             1e9;
        pass.partitions = after.GaugeValue("wsie.store.compact.partitions");
      }
      out->passes.push_back(pass);
    }
    record.end_s = since_start();
    out->cycles.push_back(record);
  }
  done->store(true);
}

struct ClientResult {
  std::vector<double> latency_us[kNumKinds];
  std::vector<double> end_s;  ///< completion times since the round started
  /// Direct QueryEngine::Execute times, and Submit minus Execute time of
  /// the same request; filled when the client runs requests directly.
  std::vector<double> engine_us[kNumKinds];
  std::vector<double> wait_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

double MicrosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// A closed-loop client. With `direct` set, every kDirectEvery-th request
/// is also executed on `direct` right after its Submit returns, on the
/// same live store, beside the same writer and append delta.
void RunClient(serve::AdmissionQueue* queue, const serve::QueryEngine* direct,
               RequestStream* stream, const std::atomic<bool>* stop,
               Clock::time_point round_start, uint64_t root_id,
               ClientResult* out) {
  Span thread_root("root.client", root_id, 0);
  auto& trace = SpanTrace::Global();
  serve::QueryEngine::Response response;
  uint64_t requests = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    const Request request = stream->Next();
    ++requests;
    const uint64_t request_id = trace.enabled() ? trace.NewRequestId() : 0;
    const auto start = Clock::now();
    bool ok;
    {
      Span s("serve.submit", request_id);
      ok = queue->Submit(request, &response);
    }
    const auto end = Clock::now();
    ++out->attempted;
    if (!ok || response.kind != request.kind) {
      ++out->failed;
      continue;
    }
    const size_t kind = KindIndex(request.kind);
    const double submit_us = MicrosBetween(start, end);
    out->latency_us[kind].push_back(submit_us);
    out->end_s.push_back(
        std::chrono::duration<double>(end - round_start).count());
    if (direct == nullptr || requests % kDirectEvery != 0) continue;
    // Similar is vector search; the other kinds are serve-side postings
    // reads.
    const auto direct_start = Clock::now();
    {
      Span s(request.kind == Kind::kSimilar ? "vec.similar" : "serve.execute",
             request_id);
      response = direct->Execute(request);
    }
    const double engine_us = MicrosBetween(direct_start, Clock::now());
    ++out->attempted;
    if (response.kind != request.kind) {
      ++out->failed;
      continue;
    }
    out->engine_us[kind].push_back(engine_us);
    out->wait_us.push_back(submit_us - engine_us);
  }
}

/// Everything the rounds of one window measured.
struct WindowResult {
  std::vector<double> latency_us[kNumKinds];
  std::vector<double> all_latency_us;
  std::vector<double> engine_us[kNumKinds];
  std::vector<double> wait_us;
  std::vector<double> cycle_reads_per_s;
  std::vector<double> cycle_mb_per_s;
  WriterResult writer;  ///< passes and append totals of every round
  uint64_t rounds = 0;
  uint64_t reads = 0;
};

/// One round: readers beside the writer's script on a fresh copy of the
/// seeded store, then the oracle: Lookup counts and TopK on the final
/// store equal the generator's own tally. Returns false on an I/O error.
bool RunRound(const SeededStore& seeded, const Options& options, bool traced,
              uint64_t root_id, RequestStream* streams, Report* report,
              WindowResult* out) {
  RoundState round;
  Status opened = OpenRound(seeded, options.work_dir + "/serve-round", &round);
  if (!opened.ok()) {
    std::fprintf(stderr, "round store: %s\n", opened.ToString().c_str());
    return false;
  }
  auto engine = std::make_shared<const serve::QueryEngine>(round.store);
  serve::AdmissionQueue::Options queue_options;
  queue_options.workers = 1;
  serve::AdmissionQueue queue(engine, queue_options);
  std::atomic<bool> done{false};
  WriterResult writer;
  ClientResult clients[kClients];
  const auto round_start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.emplace_back(RunWriter, &round, &done, round_start, root_id,
                         traced, &writer);
    for (size_t c = 0; c < kClients; ++c) {
      const serve::QueryEngine* direct =
          traced && c == 0 ? engine.get() : nullptr;
      threads.emplace_back(RunClient, &queue, direct, &streams[c], &done,
                           round_start, root_id, &clients[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  queue.Stop();

  ++out->rounds;
  report->CountOps(writer.ops, writer.failed);
  for (const ClientResult& c : clients) {
    report->CountOps(c.attempted, c.failed);
    out->wait_us.insert(out->wait_us.end(), c.wait_us.begin(),
                        c.wait_us.end());
    for (size_t k = 0; k < kNumKinds; ++k) {
      out->engine_us[k].insert(out->engine_us[k].end(), c.engine_us[k].begin(),
                               c.engine_us[k].end());
      out->latency_us[k].insert(out->latency_us[k].end(),
                                c.latency_us[k].begin(), c.latency_us[k].end());
      out->all_latency_us.insert(out->all_latency_us.end(),
                                 c.latency_us[k].begin(),
                                 c.latency_us[k].end());
      out->reads += c.latency_us[k].size();
    }
  }
  for (const CycleRecord& cycle : writer.cycles) {
    const double seconds = cycle.end_s - cycle.start_s;
    size_t reads = 0;
    for (const ClientResult& c : clients) {
      reads += std::lower_bound(c.end_s.begin(), c.end_s.end(), cycle.end_s) -
               std::lower_bound(c.end_s.begin(), c.end_s.end(), cycle.start_s);
    }
    out->cycle_reads_per_s.push_back(static_cast<double>(reads) / seconds);
    out->cycle_mb_per_s.push_back(static_cast<double>(cycle.bytes) / 1e6 /
                                  seconds);
  }
  out->writer.ops += writer.ops;
  out->writer.failed += writer.failed;
  out->writer.appends += writer.appends;
  out->writer.append_s += writer.append_s;
  out->writer.cycles.insert(out->writer.cycles.end(), writer.cycles.begin(),
                            writer.cycles.end());
  out->writer.passes.insert(out->writer.passes.end(), writer.passes.begin(),
                            writer.passes.end());
  out->writer.stale_terms.insert(out->writer.stale_terms.end(),
                                 writer.stale_terms.begin(),
                                 writer.stale_terms.end());

  Span verify("bench.verify");
  bool lookups_ok = true;
  const size_t vocabulary = round.generator->names().size();
  for (size_t i = 0; i < round.names.size(); ++i) {
    const bool fresh = i >= vocabulary;
    if (!fresh && i >= kOracleHead && i % kOracleStride != 0) continue;
    const auto lookup = engine->Lookup(round.names[i].name);
    lookups_ok &=
        lookup.count == round.expected.Count(static_cast<uint32_t>(i));
  }
  report->Check(lookups_ok, "Lookup counts equal the generator's");
  const auto served = engine->TopK(kTopK);
  const auto expected = round.expected.TopK(kTopK, round.names);
  bool topk_ok = served.size() == expected.size();
  for (size_t i = 0; topk_ok && i < served.size(); ++i) {
    topk_ok = served[i].name == expected[i].first &&
              served[i].count == expected[i].second;
  }
  report->Check(topk_ok, "TopK equals the generator's");
  Span close("store.close");
  engine.reset();
  round.store.reset();
  return true;
}

/// Runs rounds until `options.seconds` have passed (at least one).
bool RunWindow(const SeededStore& seeded, const Options& options, bool traced,
               uint64_t root_id, Report* report, WindowResult* out) {
  std::vector<RequestStream> streams;
  for (size_t c = 0; c < kClients; ++c) {
    streams.emplace_back(&seeded.generator->names(),
                         options.seed * 1000 + c + 1);
  }
  const auto start = Clock::now();
  while (out->rounds == 0 || SecondsSince(start) < options.seconds) {
    if (!RunRound(seeded, options, traced, root_id, streams.data(), report,
                  out)) {
      return false;
    }
  }
  return true;
}

void PrintPasses(const WriterResult& writer, bool traced) {
  std::vector<double> compact_s, build_s;
  for (const WritePass& p : writer.passes) {
    (p.is_build ? build_s : compact_s).push_back(p.wall_s);
  }
  const TimingSummary c = Summarize(compact_s), b = Summarize(build_s);
  std::fprintf(stderr,
               "writer: %zu cycles, %zu compactions (wall min %.1f / median "
               "%.1f / max %.1f ms), %zu index builds (median %.1f ms)\n",
               writer.cycles.size(), c.n,
               compact_s.empty()
                   ? 0.0
                   : 1e3 * *std::min_element(compact_s.begin(),
                                             compact_s.end()),
               1e3 * c.median, 1e3 * c.max, b.n, 1e3 * b.median);
  if (!traced) return;
  std::fprintf(stderr, "  %5s %-7s %9s %9s %9s %9s %5s\n", "cycle", "pass",
               "wall_ms", "stitch", "partition", "vec", "parts");
  for (const WritePass& p : writer.passes) {
    std::fprintf(stderr, "  %5llu %-7s %9.2f %9.2f %9.2f %9.2f %5.0f\n",
                 static_cast<unsigned long long>(p.cycle),
                 p.is_build ? "build" : "compact", 1e3 * p.wall_s,
                 1e3 * p.stitch_s, 1e3 * p.partition_s, 1e3 * p.vec_rebuild_s,
                 p.partitions);
  }
}

void WritePassLog(const Options& options, const WriterResult& writer) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string path = options.out_dir + "/serve_rw-seed" +
                           std::to_string(options.seed) + ".passes.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs("[\n", f);
  for (size_t i = 0; i < writer.passes.size(); ++i) {
    const WritePass& p = writer.passes[i];
    std::fprintf(f,
                 "{\"cycle\":%llu,\"pass\":\"%s\",\"wall_s\":%.9f,"
                 "\"stitch_s\":%.9f,\"partition_s\":%.9f,"
                 "\"vec_rebuild_s\":%.9f,\"partitions\":%.0f}%s\n",
                 static_cast<unsigned long long>(p.cycle),
                 p.is_build ? "build" : "compact", p.wall_s, p.stitch_s,
                 p.partition_s, p.vec_rebuild_s, p.partitions,
                 i + 1 < writer.passes.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
  std::fprintf(stderr, "writer passes -> %s\n", path.c_str());
}

}  // namespace

int RunServeRw(const Options& options, Report* report) {
  SeededStore seeded;
  Status status;
  report->e2e.setup_s = MedianSetupSeconds(kSetupReps, [&] {
    corpus::LexiconConfig config;
    config.seed = 1234 + options.seed;
    const corpus::EntityLexicons lexicons(config);
    status = SeedStore(lexicons, options.seed,
                       options.work_dir + "/serve-seeded", &seeded);
  });
  if (!status.ok()) {
    std::fprintf(stderr, "store seeding failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "serve_rw: %zu names, seeded %llu postings\n",
               seeded.generator->names().size(),
               static_cast<unsigned long long>(seeded.expected.total()));

  WindowResult untraced;
  if (!RunWindow(seeded, options, false, 0, report, &untraced)) return 1;
  PrintPasses(untraced.writer, false);
  report->e2e.units_per_s = Median(untraced.cycle_reads_per_s);
  report->e2e.op_us = Summarize(untraced.all_latency_us);
  report->e2e.out_mb_per_s = Median(untraced.cycle_mb_per_s);
  std::fprintf(stderr, "serve_rw: %llu rounds, %llu reads\n",
               static_cast<unsigned long long>(untraced.rounds),
               static_cast<unsigned long long>(untraced.reads));
  if (!options.trace) return 0;

  auto& trace = SpanTrace::Global();
  auto& registry = obs::MetricsRegistry::Global();
  trace.SetEnabled(true);
  WindowResult traced;
  uint64_t root_id = 0;
  obs::MetricsSnapshot before, after;
  {
    Span root("root.serve_rw", trace.NewRequestId());
    root_id = root.id();
    {
      Span s("obs.snapshot");
      before = registry.Snapshot();
    }
    if (!RunWindow(seeded, options, true, root_id, report, &traced)) return 1;
    Span s("obs.snapshot");
    after = registry.Snapshot();
  }
  trace.SetEnabled(false);

  std::vector<SpanRecord> spans = trace.Drain();
  WriteTrace(options, spans);
  PrintPasses(traced.writer, true);
  WritePassLog(options, traced.writer);

  double similar_engine_s = 0.0;
  for (size_t k = 0; k < kNumKinds; ++k) {
    std::vector<double> submit = traced.latency_us[k];
    std::sort(submit.begin(), submit.end());
    std::vector<double> direct = traced.engine_us[k];
    std::sort(direct.begin(), direct.end());
    const std::string kind = kKindNames[k];
    auto pct = [](const std::vector<double>& v, double p) {
      return v.empty() ? 0.0 : NearestRank(v, p);
    };
    report->SetLayer("serve.submit_us." + kind + ".p50", pct(submit, 50));
    report->SetLayer("serve.submit_us." + kind + ".p99", pct(submit, 99));
    report->SetLayer("serve.engine_us." + kind + ".p50", pct(direct, 50));
    report->SetLayer("serve.engine_us." + kind + ".p99", pct(direct, 99));
    if (kKinds[k] == Kind::kSimilar) {
      similar_engine_s = static_cast<double>(submit.size()) *
                         Summarize(traced.engine_us[k]).mean / 1e6;
    }
  }
  report->SetLayer("serve.admission.wait_us", Median(traced.wait_us));
  auto hist_mean = [&](const char* name) {
    const auto* a = after.FindHistogram(name);
    const auto* b = before.FindHistogram(name);
    const double count = static_cast<double>((a ? a->count : 0) -
                                             (b ? b->count : 0));
    const double sum = (a ? a->sum : 0.0) - (b ? b->sum : 0.0);
    return count > 0 ? sum / count : 0.0;
  };
  auto counter_diff = [&](const char* name) {
    return static_cast<double>(after.CounterValue(name) -
                               before.CounterValue(name));
  };
  auto gauge_diff = [&](const char* name) {
    return after.GaugeValue(name) - before.GaugeValue(name);
  };
  report->SetLayer("serve.admission.batch_size",
                   hist_mean("wsie.serve.admission.batch_size"));
  report->SetLayer("vec.query.hops", hist_mean("wsie.vec.query.hops"));
  report->SetLayer("vec.queries_delta",
                   counter_diff("wsie.vec.queries_delta"));
  report->SetLayer("vec.index.stale_terms",
                   Summarize(traced.writer.stale_terms).mean);

  const WriterResult& w = traced.writer;
  double compact_s = 0.0, build_s = 0.0, stitch_s = 0.0, partition_s = 0.0,
         rebuild_in_compact_s = 0.0, partitions = 0.0;
  size_t compactions = 0, builds = 0;
  for (const WritePass& p : w.passes) {
    if (p.is_build) {
      build_s += p.wall_s;
      ++builds;
    } else {
      compact_s += p.wall_s;
      stitch_s += p.stitch_s;
      partition_s += p.partition_s;
      rebuild_in_compact_s += p.vec_rebuild_s;
      partitions += p.partitions;
      ++compactions;
    }
  }
  const double nc = std::max<double>(1.0, static_cast<double>(compactions));
  report->SetLayer("store.append_s",
                   w.appends > 0
                       ? w.append_s / static_cast<double>(w.appends)
                       : 0.0);
  report->SetLayer("store.compact_s", compact_s / nc);
  report->SetLayer("store.compact.stitch_s", stitch_s / nc);
  report->SetLayer("store.compact.partition_s", partition_s / nc);
  report->SetLayer("store.compact.partitions", partitions / nc);
  report->SetLayer("store.compactions", static_cast<double>(compactions));
  report->SetLayer("vec.builds", static_cast<double>(builds));
  report->SetLayer("vec.build_s",
                   builds > 0 ? build_s / static_cast<double>(builds) : 0.0);
  report->SetLayer("store.epoch.retired",
                   gauge_diff("wsie.store.epoch.retired"));
  report->SetLayer("store.epoch.reclaimed",
                   gauge_diff("wsie.store.epoch.reclaimed"));
  report->SetLayer("obs.series", static_cast<double>(registry.num_metrics()));

  // Submit spans are opaque: the Similar share of engine time (direct
  // engine mean x Similar requests) is vector search; the compactions' index
  // rebuilds are vec work inside store.compact.
  LayerTable table = BuildLayerTable(spans, root_id);
  table.Reattribute("serve", {{"vec", similar_engine_s}});
  table.Reattribute("store", {{"vec", rebuild_in_compact_s}});
  const double overhead =
      report->e2e.units_per_s / Median(traced.cycle_reads_per_s) - 1.0;
  report->SetLayerTable(table, overhead);
  PrintLayerTable(options.workload, table, overhead);
  return 0;
}

}  // namespace wsie::perfbench
