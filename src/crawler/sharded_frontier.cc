#include "crawler/sharded_frontier.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "web/url.h"

namespace wsie::crawler {
namespace {

/// Safety bound on URL-exchange rounds. Every round delivers all pending
/// exports, so a crawl needs about as many rounds as its longest chain of
/// cross-host links; 64 only trips on an exchange that never settles.
constexpr uint64_t kMaxRounds = 64;

}  // namespace

HostShardRouter::HostShardRouter(int num_shards) : ring_(num_shards) {}

int HostShardRouter::ShardForHost(const std::string& host) const {
  return ring_.ShardForKey(host);
}

int HostShardRouter::ShardForUrl(const std::string& url) const {
  web::Url parsed;
  if (!web::ParseUrl(url, &parsed)) return -1;
  return ShardForHost(parsed.host);
}

ShardedCrawl::ShardedCrawl(const web::SimulatedWeb* web,
                           const RelevanceClassifier* classifier,
                           ShardedCrawlOptions options)
    : router_(options.num_shards), options_(options) {
  crawlers_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    CrawlerConfig config = options_.config;
    // `this` outlives the crawlers (they are members); the router is
    // immutable after construction.
    config.frontier_owner = [this, s](const std::string& host) {
      return router_.ShardForHost(host) == s;
    };
    crawlers_.push_back(
        std::make_unique<FocusedCrawler>(web, classifier, config));
  }
}

void ShardedCrawl::InjectSeeds(const std::vector<std::string>& seed_urls) {
  // Per-shard seed batches in input order; routing happens once here and
  // the shard-local frontier_owner accepts them.
  std::vector<std::vector<std::string>> per_shard(crawlers_.size());
  for (const std::string& url : seed_urls) {
    int owner = router_.ShardForUrl(url);
    if (owner < 0) continue;
    per_shard[static_cast<size_t>(owner)].push_back(url);
  }
  for (size_t s = 0; s < crawlers_.size(); ++s) {
    if (!per_shard[s].empty()) crawlers_[s]->InjectSeeds(per_shard[s]);
  }
}

void ShardedCrawl::Crawl() {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* rounds_counter =
      registry.GetCounter("wsie.shard.crawl.rounds");
  obs::Counter* exchanged_counter =
      registry.GetCounter("wsie.shard.crawl.urls_exchanged");

  while (rounds_ < kMaxRounds) {
    bool any_work = false;
    for (auto& crawler : crawlers_) {
      if (crawler->crawl_db().Empty()) continue;
      any_work = true;
      crawler->Crawl();
    }
    // Deliver cross-shard discoveries: (source shard, discovery order).
    std::vector<std::vector<std::string>> deliveries(crawlers_.size());
    size_t exported = 0;
    for (auto& crawler : crawlers_) {
      for (std::string& url : crawler->TakeExportedUrls()) {
        int owner = router_.ShardForUrl(url);
        if (owner < 0) continue;
        deliveries[static_cast<size_t>(owner)].push_back(std::move(url));
        ++exported;
      }
    }
    if (any_work || exported > 0) {
      ++rounds_;
      rounds_counter->Increment();
    }
    if (exported == 0) {
      if (!any_work) break;
      // Shards ran but produced no cross-shard links; if every frontier is
      // now quiescent the crawl is done.
      bool all_empty = true;
      for (auto& crawler : crawlers_) {
        if (!crawler->crawl_db().Empty()) all_empty = false;
      }
      if (all_empty) break;
      continue;
    }
    urls_exchanged_ += exported;
    exchanged_counter->Add(static_cast<double>(exported));
    for (size_t s = 0; s < crawlers_.size(); ++s) {
      if (!deliveries[s].empty()) crawlers_[s]->InjectSeeds(deliveries[s]);
    }
  }

  // Per-shard load gauges for the shard-wide rollups: how evenly the
  // consistent-hash ring spread the fetch work, same skew convention as
  // wsie.shard.skew.records (max/mean; 1.0 = perfectly balanced).
  uint64_t total_fetched = 0;
  uint64_t max_fetched = 0;
  for (size_t s = 0; s < crawlers_.size(); ++s) {
    const uint64_t fetched = crawlers_[s]->stats().fetched;
    registry
        .GetGauge(obs::WithLabel("wsie.shard.crawl.pages", "shard",
                                 std::to_string(s)))
        ->Set(static_cast<double>(fetched));
    total_fetched += fetched;
    max_fetched = std::max(max_fetched, fetched);
  }
  const double mean_fetched =
      static_cast<double>(total_fetched) / static_cast<double>(crawlers_.size());
  registry.GetGauge("wsie.shard.crawl.skew")
      ->Set(mean_fetched > 0 ? static_cast<double>(max_fetched) / mean_fetched
                             : 1.0);
}

CrawlStats ShardedCrawl::AggregateStats() const {
  CrawlStats total;
  double max_processing = 0.0;
  double max_virtual = 0.0;
  for (const auto& crawler : crawlers_) {
    const CrawlStats& s = crawler->stats();
    total.fetched += s.fetched;
    total.fetch_errors += s.fetch_errors;
    total.fetch_retries += s.fetch_retries;
    total.fetch_faults += s.fetch_faults;
    total.robots_blocked += s.robots_blocked;
    total.robots_unavailable += s.robots_unavailable;
    total.breaker_skipped += s.breaker_skipped;
    total.breaker_dropped += s.breaker_dropped;
    total.host_budget_skipped += s.host_budget_skipped;
    total.trap_pages += s.trap_pages;
    total.transcode_failures += s.transcode_failures;
    total.classified_relevant += s.classified_relevant;
    total.classified_irrelevant += s.classified_irrelevant;
    total.relevant_bytes += s.relevant_bytes;
    total.irrelevant_bytes += s.irrelevant_bytes;
    total.batches += s.batches;
    max_virtual = std::max(max_virtual, s.virtual_fetch_seconds);
    max_processing = std::max(max_processing, s.processing_seconds);
    total.classification_vs_truth.true_positives +=
        s.classification_vs_truth.true_positives;
    total.classification_vs_truth.false_positives +=
        s.classification_vs_truth.false_positives;
    total.classification_vs_truth.true_negatives +=
        s.classification_vs_truth.true_negatives;
    total.classification_vs_truth.false_negatives +=
        s.classification_vs_truth.false_negatives;
  }
  total.virtual_fetch_seconds = max_virtual;
  total.processing_seconds = max_processing;
  return total;
}

}  // namespace wsie::crawler
