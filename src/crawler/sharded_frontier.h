#ifndef WSIE_CRAWLER_SHARDED_FRONTIER_H_
#define WSIE_CRAWLER_SHARDED_FRONTIER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crawler/focused_crawler.h"
#include "shard/partitioner.h"

namespace wsie::crawler {

/// Routes crawl hosts to frontier shards on the consistent-hash ring, so a
/// shard count change remaps only ~1/(N+1) of the hosts (warm robots
/// caches and breaker history survive a resize for everything else).
class HostShardRouter {
 public:
  explicit HostShardRouter(int num_shards);

  int ShardForHost(const std::string& host) const;
  /// -1 when the URL does not parse.
  int ShardForUrl(const std::string& url) const;
  int num_shards() const { return ring_.num_shards(); }

 private:
  shard::HashRing ring_;
};

/// Options for a sharded crawl. The stop knobs inside `config` apply
/// per shard (each shard is an independent FocusedCrawler).
struct ShardedCrawlOptions {
  int num_shards = 2;
  CrawlerConfig config;
};

/// N host-sharded focused crawlers plus the round-based URL exchange
/// between them — the crawl-side analogue of the dataflow exchange layer.
///
/// Hosts are assigned to shards by HostShardRouter; every per-host
/// mutable structure (robots cache, circuit breaker, politeness dispatch
/// counts, host budgets) lives only on the owning shard, so shards never
/// contend or disagree on host state. A shard that discovers a link to a
/// foreign host exports it (CrawlerConfig::frontier_owner) instead of
/// fetching it; Crawl() runs rounds of [each shard crawls its local
/// frontier to quiescence] then [exported URLs are delivered to their
/// owners] until no frontier and no export queue has work left.
///
/// Determinism: each shard's crawl is the usual serial-apply loop, and
/// exports are delivered in (source shard, discovery order) — so for a
/// fixed seed set and shard count the union of the shard corpora is a
/// pure function of the configuration, independent of thread scheduling.
class ShardedCrawl {
 public:
  ShardedCrawl(const web::SimulatedWeb* web,
               const RelevanceClassifier* classifier,
               ShardedCrawlOptions options);

  /// Routes each seed to its owning shard's frontier.
  void InjectSeeds(const std::vector<std::string>& seed_urls);

  /// Runs exchange rounds until every shard frontier is empty (or a shard
  /// stop condition / the round bound halts progress).
  void Crawl();

  int num_shards() const { return static_cast<int>(crawlers_.size()); }
  FocusedCrawler& shard(int i) { return *crawlers_[static_cast<size_t>(i)]; }
  const HostShardRouter& router() const { return router_; }
  uint64_t rounds() const { return rounds_; }
  uint64_t urls_exchanged() const { return urls_exchanged_; }

  /// Sums the countable per-shard stats (wall times are per-shard;
  /// the aggregate keeps the max, the serial-equivalent critical path).
  CrawlStats AggregateStats() const;

 private:
  HostShardRouter router_;
  ShardedCrawlOptions options_;
  std::vector<std::unique_ptr<FocusedCrawler>> crawlers_;
  uint64_t rounds_ = 0;
  uint64_t urls_exchanged_ = 0;
};

}  // namespace wsie::crawler

#endif  // WSIE_CRAWLER_SHARDED_FRONTIER_H_
