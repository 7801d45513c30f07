#include "vec/ann_index.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "fault/checkpoint.h"
#include "fault/wire_format.h"
#include "obs/metrics.h"
#include "vec/distance.h"

namespace wsie::vec {
namespace {

namespace wire = wsie::fault::wire;

// v1: sequential-build indexes without a persisted batch size (decoded as
// build_batch = 1, which reproduces their construction schedule exactly).
// v2 adds build_batch to the meta section. Encode always writes v2.
constexpr uint64_t kFormatVersionNoBatch = 1;
constexpr uint64_t kFormatVersion = 2;

/// A (quantized distance, id) pair; all orderings tie-break on id so every
/// traversal is deterministic.
struct Candidate {
  uint32_t distance = 0;
  uint32_t id = 0;

  friend bool operator<(const Candidate& a, const Candidate& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// Bounded best-first pool over quantized distances: the classic Vamana /
/// DiskANN GreedySearch. Expands the closest unexpanded candidate until
/// every pool entry is expanded, inserting newly-visited neighbors when
/// they beat the pool's worst entry. `visited` carries a per-query
/// generation stamp so no O(n) clear happens per search.
class GreedySearcher {
 public:
  GreedySearcher(const uint8_t* codes, uint32_t dim,
                 const CacheAlignedVector<uint32_t>& graph,
                 const std::vector<uint32_t>& offsets, size_t n)
      : codes_(codes), dim_(dim), graph_(graph), offsets_(offsets), n_(n) {}

  /// Runs the search and leaves the final pool (sorted by distance, id) in
  /// `*pool`. Returns traversal counters.
  VecIndex::SearchStats Run(const uint8_t* query, uint32_t start, size_t beam,
                            std::vector<Candidate>* pool) {
    VecIndex::SearchStats stats;
    pool->clear();
    if (n_ == 0) return stats;
    thread_local std::vector<uint64_t> visited;
    thread_local uint64_t generation = 0;
    if (visited.size() < n_) visited.resize(n_, 0);
    ++generation;

    auto distance_to = [&](uint32_t id) {
      ++stats.distances;
      return L2SquaredU8(query, codes_ + static_cast<size_t>(id) * dim_,
                         dim_);
    };
    auto mark = [&](uint32_t id) {
      if (visited[id] == generation) return false;
      visited[id] = generation;
      return true;
    };

    mark(start);
    pool->push_back(Candidate{distance_to(start), start});
    // expanded_[i] parallels pool: whether entry i's neighbors were pulled.
    thread_local std::vector<uint8_t> expanded;
    expanded.assign(1, 0);

    for (;;) {
      // Closest unexpanded pool entry; pool is kept sorted.
      size_t next = pool->size();
      for (size_t i = 0; i < pool->size(); ++i) {
        if (!expanded[i]) {
          next = i;
          break;
        }
      }
      if (next == pool->size()) break;
      expanded[next] = 1;
      ++stats.hops;
      const uint32_t node = (*pool)[next].id;
      const uint32_t begin = offsets_[node];
      const uint32_t end = offsets_[node + 1];
      for (uint32_t e = begin; e < end; ++e) {
        const uint32_t neighbor = graph_[e];
        if (!mark(neighbor)) continue;
        const Candidate candidate{distance_to(neighbor), neighbor};
        if (pool->size() >= beam && !(candidate < pool->back())) continue;
        // Sorted insert; evict the worst entry past the beam.
        const auto at = std::lower_bound(pool->begin(), pool->end(),
                                         candidate);
        const size_t pos = static_cast<size_t>(at - pool->begin());
        pool->insert(at, candidate);
        expanded.insert(expanded.begin() + static_cast<ptrdiff_t>(pos), 0);
        if (pool->size() > beam) {
          pool->pop_back();
          expanded.pop_back();
        }
      }
    }
    return stats;
  }

 private:
  const uint8_t* codes_;
  uint32_t dim_;
  const CacheAlignedVector<uint32_t>& graph_;
  const std::vector<uint32_t>& offsets_;
  size_t n_;
};

}  // namespace

int64_t VecIndex::FindName(std::string_view name) const {
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) return -1;
  return it - names_.begin();
}

std::span<const uint32_t> VecIndex::NeighborsOf(uint32_t i) const {
  return {graph_.data() + graph_offsets_[i],
          static_cast<size_t>(graph_offsets_[i + 1] - graph_offsets_[i])};
}

// --------------------------------------------------------------- building

namespace {

/// Robust prune: keep at most R candidates, closest first, dropping any
/// candidate dominated by an already-kept one (alpha-scaled). `candidates`
/// must be sorted and unique; entries equal to `node` are skipped.
void RobustPrune(uint32_t node, std::vector<Candidate>* candidates,
                 const uint8_t* codes, uint32_t dim, float alpha, uint32_t r,
                 std::vector<uint32_t>* out) {
  out->clear();
  thread_local std::vector<uint8_t> dropped;
  dropped.assign(candidates->size(), 0);
  for (size_t i = 0; i < candidates->size() && out->size() < r; ++i) {
    if (dropped[i]) continue;
    const Candidate kept = (*candidates)[i];
    if (kept.id == node) continue;
    out->push_back(kept.id);
    const uint8_t* kept_codes = codes + static_cast<size_t>(kept.id) * dim;
    for (size_t j = i + 1; j < candidates->size(); ++j) {
      if (dropped[j]) continue;
      const Candidate& other = (*candidates)[j];
      const uint32_t kept_to_other = L2SquaredU8(
          kept_codes, codes + static_cast<size_t>(other.id) * dim, dim);
      if (alpha * static_cast<float>(kept_to_other) <=
          static_cast<float>(other.distance)) {
        dropped[j] = 1;
      }
    }
  }
}

void SortUniqueCandidates(std::vector<Candidate>* candidates) {
  std::sort(candidates->begin(), candidates->end());
  candidates->erase(std::unique(candidates->begin(), candidates->end()),
                    candidates->end());
  // Distinct distances to the same id cannot happen (distance is a pure
  // function of the id), so (distance, id) uniqueness equals id uniqueness.
}

/// Per-thread construction scratch. Workers of the shared pool serve many
/// Build() calls over their lifetime, so the visited stamps are keyed by a
/// per-call owner token: a new owner (or a larger node count) re-zeroes the
/// stamp array, and the generation counter only ever moves forward — a
/// stale stamp can never equal a fresh generation.
struct BuildScratch {
  const void* owner = nullptr;
  std::vector<Candidate> pool;
  std::vector<Candidate> candidates;
  std::vector<uint32_t> pruned;
  std::vector<uint8_t> expanded;
  std::vector<uint64_t> visited;
  uint64_t generation = 0;
};

BuildScratch& LocalBuildScratch(const void* owner, size_t n) {
  thread_local BuildScratch scratch;
  if (scratch.owner != owner || scratch.visited.size() < n) {
    scratch.visited.assign(n, 0);
    scratch.generation = 0;
    scratch.owner = owner;
  }
  return scratch;
}

/// The construction-time greedy search (identical to the original
/// sequential build's inner loop): best-first traversal of the current
/// adjacency from the medoid, recording every visited node in
/// `scratch->candidates`. Reads the graph only — during a batch's parallel
/// phase nothing mutates it, so the result is a pure function of the
/// frozen pre-batch graph and the query.
void BuildSearch(const std::vector<std::vector<uint32_t>>& adjacency,
                 const uint8_t* codes, uint32_t dim, uint32_t medoid,
                 size_t beam, const uint8_t* query, BuildScratch* scratch) {
  scratch->pool.clear();
  scratch->candidates.clear();
  ++scratch->generation;
  scratch->expanded.assign(1, 0);
  auto distance_to = [&](uint32_t node) {
    return L2SquaredU8(query, codes + static_cast<size_t>(node) * dim, dim);
  };
  scratch->visited[medoid] = scratch->generation;
  scratch->pool.push_back(Candidate{distance_to(medoid), medoid});
  scratch->candidates.push_back(scratch->pool[0]);
  for (;;) {
    size_t next = scratch->pool.size();
    for (size_t i = 0; i < scratch->pool.size(); ++i) {
      if (!scratch->expanded[i]) {
        next = i;
        break;
      }
    }
    if (next == scratch->pool.size()) break;
    scratch->expanded[next] = 1;
    for (const uint32_t neighbor : adjacency[scratch->pool[next].id]) {
      if (scratch->visited[neighbor] == scratch->generation) continue;
      scratch->visited[neighbor] = scratch->generation;
      const Candidate candidate{distance_to(neighbor), neighbor};
      scratch->candidates.push_back(candidate);
      if (scratch->pool.size() >= beam && !(candidate < scratch->pool.back()))
        continue;
      const auto at = std::lower_bound(scratch->pool.begin(),
                                       scratch->pool.end(), candidate);
      const size_t pos = static_cast<size_t>(at - scratch->pool.begin());
      scratch->pool.insert(at, candidate);
      scratch->expanded.insert(
          scratch->expanded.begin() + static_cast<ptrdiff_t>(pos), 0);
      if (scratch->pool.size() > beam) {
        scratch->pool.pop_back();
        scratch->expanded.pop_back();
      }
    }
  }
}

}  // namespace

Result<VecIndex> VecIndex::Build(std::vector<std::string> names,
                                 const VecIndexConfig& config, uint64_t id,
                                 const BuildOptions& options) {
  if (config.embedder.dim == 0 || config.max_degree == 0 ||
      config.build_beam == 0 || config.build_batch == 0) {
    return Status::InvalidArgument("vec: degenerate index config");
  }
  if (config.embedder.ngram_min == 0 ||
      config.embedder.ngram_min > config.embedder.ngram_max) {
    return Status::InvalidArgument("vec: bad ngram range");
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* batches_counter = registry.GetCounter("wsie.vec.build.batches");
  obs::Histogram* embed_wall_ns =
      registry.GetHistogram("wsie.vec.build.embed_wall_ns");
  obs::Histogram* graph_wall_ns =
      registry.GetHistogram("wsie.vec.build.graph_wall_ns");
  ThreadPool* pool =
      options.pool != nullptr ? options.pool : &SharedThreadPool();
  const size_t workers =
      options.workers != 0 ? options.workers : pool->num_threads() + 1;

  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());

  VecIndex index;
  index.id_ = id;
  index.config_ = config;
  index.embedder_ = Embedder(config.embedder);
  index.names_ = std::move(names);

  const size_t n = index.names_.size();
  const uint32_t dim = config.embedder.dim;
  // Embedding and code rows are pure per-name functions — morsel order
  // cannot affect a byte of output.
  Stopwatch embed_watch;
  index.floats_.resize(n * dim);
  pool->MorselFor(n, workers, [&](size_t i) {
    index.embedder_.Embed(index.names_[i], index.floats_.data() + i * dim);
    return true;
  });
  index.quantizer_ = Quantizer::Train(index.floats_.data(), n, dim);
  index.codes_.resize(n * dim);
  pool->MorselFor(n, workers, [&](size_t i) {
    index.quantizer_.Encode(index.floats_.data() + i * dim,
                            index.codes_.data() + i * dim);
    return true;
  });
  embed_wall_ns->Observe(static_cast<double>(embed_watch.ElapsedNs()));

  if (n == 0) {
    index.graph_offsets_.assign(1, 0);
    index.encoded_bytes_ = index.Encode().size();
    return index;
  }

  // Medoid: the vector closest to the dataset mean (float math in fixed
  // order; ties break on id).
  {
    std::vector<double> mean(dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const float* row = index.floats_.data() + i * dim;
      for (uint32_t d = 0; d < dim; ++d) mean[d] += row[d];
    }
    std::vector<float> mean_f(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      mean_f[d] = static_cast<float>(mean[d] / static_cast<double>(n));
    }
    float best = 0.0f;
    for (size_t i = 0; i < n; ++i) {
      const float d2 =
          L2SquaredF32(mean_f.data(), index.floats_.data() + i * dim, dim);
      if (i == 0 || d2 < best) {
        best = d2;
        index.medoid_ = static_cast<uint32_t>(i);
      }
    }
  }

  const uint32_t r = config.max_degree;
  const size_t beam = config.build_beam;
  const uint8_t* codes = index.codes_.data();

  // Random bootstrap graph from the seeded generator: every node gets up
  // to R distinct random out-neighbors, identical on every run.
  std::vector<std::vector<uint32_t>> adjacency(n);
  {
    Rng rng(config.seed);
    for (size_t i = 0; i < n; ++i) {
      auto& neighbors = adjacency[i];
      const size_t want = std::min<size_t>(r, n - 1);
      while (neighbors.size() < want) {
        const auto pick = static_cast<uint32_t>(rng.Uniform(n));
        if (pick == i) continue;
        if (std::find(neighbors.begin(), neighbors.end(), pick) !=
            neighbors.end()) {
          continue;
        }
        neighbors.push_back(pick);
      }
    }
  }

  auto distance_between = [&](uint32_t a, uint32_t b) {
    return L2SquaredU8(codes + static_cast<size_t>(a) * dim,
                       codes + static_cast<size_t>(b) * dim, dim);
  };

  // Two passes, alpha 1.0 then config.alpha — the standard Vamana schedule —
  // over batches of `build_batch` consecutive nodes. Within a batch the
  // greedy search + robust prune for every node runs against the frozen
  // pre-batch graph (pure reads, so the work morsel-parallelizes with no
  // effect on the output), then the results apply serially in id order:
  // first every node's new out-list, then every node's back-edge patches.
  // The graph therefore depends on build_batch but never on the pool width;
  // build_batch = 1 replays the original fully sequential schedule.
  Stopwatch graph_watch;
  const size_t batch_size = config.build_batch;
  const void* owner_token = &adjacency;
  std::vector<std::vector<uint32_t>> pruned_results(
      std::min<size_t>(batch_size, n));
  for (int pass = 0; pass < 2; ++pass) {
    const float alpha = pass == 0 ? 1.0f : config.alpha;
    for (size_t start = 0; start < n; start += batch_size) {
      const size_t count = std::min(batch_size, n - start);
      batches_counter->Add(1);
      pool->MorselFor(count, workers, [&](size_t i) {
        const size_t node = start + i;
        const uint32_t node_id = static_cast<uint32_t>(node);
        BuildScratch& scratch = LocalBuildScratch(owner_token, n);
        BuildSearch(adjacency, codes, dim, index.medoid_, beam,
                    codes + node * dim, &scratch);
        // Candidate pool: everything visited plus current out-neighbors.
        for (const uint32_t neighbor : adjacency[node]) {
          scratch.candidates.push_back(
              Candidate{distance_between(node_id, neighbor), neighbor});
        }
        SortUniqueCandidates(&scratch.candidates);
        RobustPrune(node_id, &scratch.candidates, codes, dim, alpha, r,
                    &scratch.pruned);
        pruned_results[i] = scratch.pruned;
        return true;
      });
      // Serial apply in fixed id order: out-lists first so intra-batch
      // back-edges land on the new lists, exactly like the serial schedule
      // does for batch 1.
      for (size_t i = 0; i < count; ++i) {
        adjacency[start + i] = std::move(pruned_results[i]);
      }
      std::vector<Candidate> back_candidates;
      std::vector<uint32_t> back_pruned;
      for (size_t i = 0; i < count; ++i) {
        const size_t node = start + i;
        const uint32_t node_id = static_cast<uint32_t>(node);
        // Patch back-edges; over-full destinations get re-pruned.
        for (const uint32_t neighbor : adjacency[node]) {
          auto& back = adjacency[neighbor];
          if (std::find(back.begin(), back.end(), node_id) != back.end()) {
            continue;
          }
          back.push_back(node_id);
          if (back.size() > r) {
            back_candidates.clear();
            for (const uint32_t b : back) {
              back_candidates.push_back(
                  Candidate{distance_between(neighbor, b), b});
            }
            SortUniqueCandidates(&back_candidates);
            RobustPrune(neighbor, &back_candidates, codes, dim, alpha, r,
                        &back_pruned);
            back = back_pruned;
          }
        }
      }
    }
  }
  graph_wall_ns->Observe(static_cast<double>(graph_watch.ElapsedNs()));

  // Freeze to CSR.
  index.graph_offsets_.resize(n + 1);
  index.graph_offsets_[0] = 0;
  size_t total_edges = 0;
  for (size_t i = 0; i < n; ++i) {
    total_edges += adjacency[i].size();
    index.graph_offsets_[i + 1] = static_cast<uint32_t>(total_edges);
  }
  index.graph_.resize(total_edges);
  size_t edge = 0;
  for (size_t i = 0; i < n; ++i) {
    for (const uint32_t neighbor : adjacency[i]) {
      index.graph_[edge++] = neighbor;
    }
  }
  index.encoded_bytes_ = index.Encode().size();
  return index;
}

// --------------------------------------------------------------- querying

std::vector<VecIndex::Neighbor> VecIndex::Search(const float* query, size_t k,
                                                 size_t beam,
                                                 SearchStats* stats) const {
  std::vector<Neighbor> result;
  const size_t n = names_.size();
  if (n == 0 || k == 0) return result;
  if (beam == 0) {
    beam = std::max<size_t>(config_.build_beam, 4 * k);
  }
  beam = std::max(beam, k);

  thread_local std::vector<uint8_t> query_codes;
  query_codes.resize(dim());
  quantizer_.Encode(query, query_codes.data());

  thread_local std::vector<Candidate> pool;
  GreedySearcher searcher(codes_.data(), dim(), graph_, graph_offsets_, n);
  SearchStats local =
      searcher.Run(query_codes.data(), medoid_, beam, &pool);

  // Exact float re-rank of the pool; ties break on id.
  result.reserve(pool.size());
  for (const Candidate& candidate : pool) {
    result.push_back(Neighbor{
        candidate.id,
        L2SquaredF32(query, vector(candidate.id), dim())});
  }
  local.reranked = result.size();
  std::sort(result.begin(), result.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  if (result.size() > k) result.resize(k);
  if (stats != nullptr) *stats = local;
  return result;
}

std::vector<VecIndex::Neighbor> VecIndex::SearchExact(const float* query,
                                                      size_t k) const {
  std::vector<Neighbor> all;
  const size_t n = names_.size();
  all.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    all.push_back(Neighbor{static_cast<uint32_t>(i),
                           L2SquaredF32(query, vector(i), dim())});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<VecIndex::Neighbor> VecIndex::SearchText(std::string_view text,
                                                     size_t k, size_t beam,
                                                     SearchStats* stats) const {
  thread_local std::vector<float> query;
  query.resize(dim());
  embedder_.Embed(text, query.data());
  return Search(query.data(), k, beam, stats);
}

// ------------------------------------------------------------- persistence

namespace {

/// Raw little-endian byte append/consume for the bulk sections. The repo
/// targets little-endian hosts throughout (the group-varint lanes make the
/// same assumption); text encodings would bloat vector sections ~5x.
template <typename T>
void PutRaw(std::string* out, const T* data, size_t count) {
  out->append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

template <typename T>
bool GetRaw(std::string_view* in, T* data, size_t count) {
  const size_t bytes = count * sizeof(T);
  if (in->size() < bytes) return false;
  std::memcpy(data, in->data(), bytes);
  in->remove_prefix(bytes);
  return true;
}

}  // namespace

fault::Checkpoint VecIndex::ToContainer() const {
  fault::Checkpoint container;
  const size_t n = names_.size();
  const uint32_t dim_v = dim();

  std::string meta;
  wire::PutU64(&meta, kFormatVersion);
  wire::PutU64(&meta, id_);
  wire::PutU64(&meta, n);
  wire::PutU64(&meta, dim_v);
  wire::PutU64(&meta, config_.embedder.ngram_min);
  wire::PutU64(&meta, config_.embedder.ngram_max);
  wire::PutU64(&meta, config_.max_degree);
  wire::PutU64(&meta, config_.build_beam);
  wire::PutU64(&meta, config_.build_batch);
  wire::PutDouble(&meta, static_cast<double>(config_.alpha));
  wire::PutU64(&meta, config_.seed);
  wire::PutU64(&meta, medoid_);
  wire::PutU64(&meta, graph_.size());
  container.SetSection("meta", std::move(meta));

  std::string names;
  for (const std::string& name : names_) wire::PutString(&names, name);
  container.SetSection("names", std::move(names));

  std::string vectors;
  PutRaw(&vectors, floats_.data(), floats_.size());
  container.SetSection("vectors", std::move(vectors));

  std::string quant;
  PutRaw(&quant, quantizer_.mins().data(), quantizer_.mins().size());
  PutRaw(&quant, quantizer_.scales().data(), quantizer_.scales().size());
  PutRaw(&quant, codes_.data(), codes_.size());
  container.SetSection("quant", std::move(quant));

  std::string graph;
  PutRaw(&graph, graph_offsets_.data(), graph_offsets_.size());
  PutRaw(&graph, graph_.data(), graph_.size());
  container.SetSection("graph", std::move(graph));

  return container;
}

std::string VecIndex::Encode() const { return ToContainer().Serialize(); }

Result<VecIndex> VecIndex::Decode(std::string_view bytes) {
  WSIE_ASSIGN_OR_RETURN(fault::Checkpoint container,
                        fault::Checkpoint::Deserialize(bytes));
  auto section = [&](const char* name) -> Result<std::string_view> {
    const std::string* s = container.FindSection(name);
    if (s == nullptr) {
      return Status::InvalidArgument(std::string("vec: missing section ") +
                                     name);
    }
    return std::string_view(*s);
  };

  WSIE_ASSIGN_OR_RETURN(std::string_view meta, section("meta"));
  uint64_t version = 0, id = 0, n = 0, dim = 0, ngram_min = 0, ngram_max = 0,
           max_degree = 0, build_beam = 0, build_batch = 0, seed = 0,
           medoid = 0, edges = 0;
  double alpha = 0.0;
  if (!wire::GetU64(&meta, &version) ||
      (version != kFormatVersion && version != kFormatVersionNoBatch) ||
      !wire::GetU64(&meta, &id) || !wire::GetU64(&meta, &n) ||
      !wire::GetU64(&meta, &dim) || !wire::GetU64(&meta, &ngram_min) ||
      !wire::GetU64(&meta, &ngram_max) || !wire::GetU64(&meta, &max_degree) ||
      !wire::GetU64(&meta, &build_beam)) {
    return Status::InvalidArgument("vec: malformed meta section");
  }
  // v1 predates batched construction; those graphs were built with the
  // fully sequential schedule, i.e. build_batch = 1.
  if (version == kFormatVersionNoBatch) {
    build_batch = 1;
  } else if (!wire::GetU64(&meta, &build_batch)) {
    return Status::InvalidArgument("vec: malformed meta section");
  }
  if (!wire::GetDouble(&meta, &alpha) || !wire::GetU64(&meta, &seed) ||
      !wire::GetU64(&meta, &medoid) || !wire::GetU64(&meta, &edges)) {
    return Status::InvalidArgument("vec: malformed meta section");
  }
  if (dim == 0 || dim > (1u << 20) || max_degree == 0 || build_beam == 0 ||
      build_batch == 0 || ngram_min == 0 || ngram_min > ngram_max) {
    return Status::InvalidArgument("vec: inconsistent meta values");
  }
  if (n > 0 && medoid >= n) {
    return Status::InvalidArgument("vec: medoid out of range");
  }

  VecIndex index;
  index.id_ = id;
  index.config_.embedder.dim = static_cast<uint32_t>(dim);
  index.config_.embedder.ngram_min = static_cast<uint32_t>(ngram_min);
  index.config_.embedder.ngram_max = static_cast<uint32_t>(ngram_max);
  index.config_.max_degree = static_cast<uint32_t>(max_degree);
  index.config_.build_beam = static_cast<uint32_t>(build_beam);
  index.config_.build_batch = static_cast<uint32_t>(build_batch);
  index.config_.alpha = static_cast<float>(alpha);
  index.config_.seed = seed;
  index.embedder_ = Embedder(index.config_.embedder);
  index.medoid_ = static_cast<uint32_t>(medoid);

  WSIE_ASSIGN_OR_RETURN(std::string_view names, section("names"));
  index.names_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    if (!wire::GetString(&names, &name)) {
      return Status::InvalidArgument("vec: truncated names section");
    }
    if (i > 0 && !(index.names_.back() < name)) {
      return Status::InvalidArgument("vec: names not sorted/unique");
    }
    index.names_.push_back(std::move(name));
  }
  if (!names.empty()) {
    return Status::InvalidArgument("vec: trailing bytes in names section");
  }

  WSIE_ASSIGN_OR_RETURN(std::string_view vectors, section("vectors"));
  index.floats_.resize(n * dim);
  if (!GetRaw(&vectors, index.floats_.data(), index.floats_.size()) ||
      !vectors.empty()) {
    return Status::InvalidArgument("vec: bad vectors section size");
  }

  WSIE_ASSIGN_OR_RETURN(std::string_view quant, section("quant"));
  std::vector<float> mins(dim), scales(dim);
  index.codes_.resize(n * dim);
  if (!GetRaw(&quant, mins.data(), mins.size()) ||
      !GetRaw(&quant, scales.data(), scales.size()) ||
      !GetRaw(&quant, index.codes_.data(), index.codes_.size()) ||
      !quant.empty()) {
    return Status::InvalidArgument("vec: bad quant section size");
  }
  index.quantizer_ = Quantizer::FromParams(std::move(mins), std::move(scales));

  WSIE_ASSIGN_OR_RETURN(std::string_view graph, section("graph"));
  index.graph_offsets_.resize(n + 1);
  index.graph_.resize(edges);
  if (!GetRaw(&graph, index.graph_offsets_.data(),
              index.graph_offsets_.size()) ||
      !GetRaw(&graph, index.graph_.data(), index.graph_.size()) ||
      !graph.empty()) {
    return Status::InvalidArgument("vec: bad graph section size");
  }
  if (index.graph_offsets_[0] != 0 ||
      index.graph_offsets_[n] != index.graph_.size()) {
    return Status::InvalidArgument("vec: bad graph offsets");
  }
  for (size_t i = 0; i < n; ++i) {
    if (index.graph_offsets_[i] > index.graph_offsets_[i + 1] ||
        index.graph_offsets_[i + 1] - index.graph_offsets_[i] > max_degree) {
      return Status::InvalidArgument("vec: bad graph offsets");
    }
  }
  for (const uint32_t neighbor : index.graph_) {
    if (neighbor >= n) {
      return Status::InvalidArgument("vec: graph neighbor out of range");
    }
  }
  index.encoded_bytes_ = bytes.size();
  return index;
}

Status VecIndex::WriteFile(const std::string& path) const {
  return ToContainer().WriteFile(path);
}

Result<VecIndex> VecIndex::ReadFile(const std::string& path) {
  WSIE_ASSIGN_OR_RETURN(fault::Checkpoint container,
                        fault::Checkpoint::ReadFile(path));
  return Decode(container.Serialize());
}

}  // namespace wsie::vec
