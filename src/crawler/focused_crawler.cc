#include "crawler/focused_crawler.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "fault/checkpoint.h"
#include "fault/wire_format.h"
#include "html/markup_remover.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "web/url.h"

namespace wsie::crawler {

namespace wire = fault::wire;

void CrawlStats::EncodeTo(std::string* out) const {
  wire::PutU64(out, fetched);
  wire::PutU64(out, fetch_errors);
  wire::PutU64(out, fetch_retries);
  wire::PutU64(out, fetch_faults);
  wire::PutU64(out, robots_blocked);
  wire::PutU64(out, robots_unavailable);
  wire::PutU64(out, breaker_skipped);
  wire::PutU64(out, breaker_dropped);
  wire::PutU64(out, host_budget_skipped);
  wire::PutU64(out, trap_pages);
  wire::PutU64(out, transcode_failures);
  wire::PutU64(out, classified_relevant);
  wire::PutU64(out, classified_irrelevant);
  wire::PutU64(out, relevant_bytes);
  wire::PutU64(out, irrelevant_bytes);
  wire::PutU64(out, batches);
  wire::PutDouble(out, virtual_fetch_seconds);
  wire::PutDouble(out, processing_seconds);
  wire::PutU64(out, classification_vs_truth.true_positives);
  wire::PutU64(out, classification_vs_truth.false_positives);
  wire::PutU64(out, classification_vs_truth.true_negatives);
  wire::PutU64(out, classification_vs_truth.false_negatives);
}

Status CrawlStats::DecodeFrom(std::string_view* in) {
  CrawlStats s;
  bool ok = wire::GetU64(in, &s.fetched) && wire::GetU64(in, &s.fetch_errors) &&
            wire::GetU64(in, &s.fetch_retries) &&
            wire::GetU64(in, &s.fetch_faults) &&
            wire::GetU64(in, &s.robots_blocked) &&
            wire::GetU64(in, &s.robots_unavailable) &&
            wire::GetU64(in, &s.breaker_skipped) &&
            wire::GetU64(in, &s.breaker_dropped) &&
            wire::GetU64(in, &s.host_budget_skipped) &&
            wire::GetU64(in, &s.trap_pages) &&
            wire::GetU64(in, &s.transcode_failures) &&
            wire::GetU64(in, &s.classified_relevant) &&
            wire::GetU64(in, &s.classified_irrelevant) &&
            wire::GetU64(in, &s.relevant_bytes) &&
            wire::GetU64(in, &s.irrelevant_bytes) &&
            wire::GetU64(in, &s.batches) &&
            wire::GetDouble(in, &s.virtual_fetch_seconds) &&
            wire::GetDouble(in, &s.processing_seconds) &&
            wire::GetU64(in, &s.classification_vs_truth.true_positives) &&
            wire::GetU64(in, &s.classification_vs_truth.false_positives) &&
            wire::GetU64(in, &s.classification_vs_truth.true_negatives) &&
            wire::GetU64(in, &s.classification_vs_truth.false_negatives);
  if (!ok) return Status::InvalidArgument("crawl stats: malformed section");
  *this = s;
  return Status::OK();
}

namespace {

/// Encodes a string->u64 map in sorted key order.
void EncodeStringU64Map(const std::unordered_map<std::string, int>& map,
                        std::string* out) {
  std::vector<std::pair<std::string, uint64_t>> items;
  items.reserve(map.size());
  for (const auto& [key, value] : map) {
    items.emplace_back(key, static_cast<uint64_t>(value));
  }
  std::sort(items.begin(), items.end());
  wire::PutU64(out, items.size());
  for (const auto& [key, value] : items) {
    wire::PutString(out, key);
    wire::PutU64(out, value);
  }
}

Status DecodeStringU64Map(std::string_view in, const char* what,
                          std::unordered_map<std::string, int>* map) {
  uint64_t count = 0;
  if (!wire::GetU64(&in, &count)) {
    return Status::InvalidArgument(std::string(what) + ": malformed header");
  }
  std::unordered_map<std::string, int> decoded;
  decoded.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    uint64_t value = 0;
    if (!wire::GetString(&in, &key) || !wire::GetU64(&in, &value)) {
      return Status::InvalidArgument(std::string(what) + ": malformed entry");
    }
    decoded[std::move(key)] = static_cast<int>(value);
  }
  *map = std::move(decoded);
  return Status::OK();
}

void EncodeRobotsCache(const std::unordered_map<std::string, std::string>& map,
                       std::string* out) {
  std::vector<std::pair<std::string, std::string>> items(map.begin(),
                                                         map.end());
  std::sort(items.begin(), items.end());
  wire::PutU64(out, items.size());
  for (const auto& [host, prefix] : items) {
    wire::PutString(out, host);
    wire::PutString(out, prefix);
  }
}

Status DecodeRobotsCache(std::string_view in,
                         std::unordered_map<std::string, std::string>* map) {
  uint64_t count = 0;
  if (!wire::GetU64(&in, &count)) {
    return Status::InvalidArgument("robots cache: malformed header");
  }
  std::unordered_map<std::string, std::string> decoded;
  decoded.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string host, prefix;
    if (!wire::GetString(&in, &host) || !wire::GetString(&in, &prefix)) {
      return Status::InvalidArgument("robots cache: malformed entry");
    }
    decoded[std::move(host)] = std::move(prefix);
  }
  *map = std::move(decoded);
  return Status::OK();
}

void EncodeCorpus(const corpus::DocumentStore& store, std::string* out) {
  wire::PutU64(out, store.size());
  for (const corpus::Document& doc : store.documents()) {
    wire::PutU64(out, doc.id);
    wire::PutU64(out, static_cast<uint64_t>(doc.kind));
    wire::PutString(out, doc.url);
    wire::PutString(out, doc.text);
  }
}

Status DecodeCorpus(std::string_view* in, corpus::DocumentStore* store) {
  uint64_t count = 0;
  if (!wire::GetU64(in, &count)) {
    return Status::InvalidArgument("corpus: malformed header");
  }
  corpus::DocumentStore decoded;
  for (uint64_t i = 0; i < count; ++i) {
    corpus::Document doc;
    uint64_t kind = 0;
    if (!wire::GetU64(in, &doc.id) || !wire::GetU64(in, &kind) ||
        kind > static_cast<uint64_t>(corpus::CorpusKind::kPmc) ||
        !wire::GetString(in, &doc.url) || !wire::GetString(in, &doc.text)) {
      return Status::InvalidArgument("corpus: malformed document");
    }
    doc.kind = static_cast<corpus::CorpusKind>(kind);
    decoded.Add(std::move(doc));
  }
  *store = std::move(decoded);
  return Status::OK();
}

/// Registry handles for the crawler, resolved once per process. The crawl
/// loop feeds them from CrawlStats deltas at batch boundaries — CrawlStats
/// stays the single authoritative (and checkpoint-serialized) tally, and
/// the registry mirrors it without a second counting site.
struct CrawlMetrics {
  obs::Counter* pages;
  obs::Counter* errors;
  obs::Counter* retries;
  obs::Counter* faults;
  obs::Counter* robots_blocked;
  obs::Counter* robots_unavailable;
  obs::Counter* breaker_skipped;
  obs::Counter* breaker_dropped;
  obs::Counter* host_budget_skipped;
  obs::Counter* trap_pages;
  obs::Counter* transcode_failures;
  obs::Counter* classified_relevant;
  obs::Counter* classified_irrelevant;
  obs::Counter* batches;
  obs::Gauge* frontier_pending;
  obs::Gauge* frontier_known;
  obs::Gauge* harvest_rate;
  obs::Gauge* backoff_total_ms;
  obs::Histogram* checkpoint_write_ns;
};

CrawlMetrics& GetCrawlMetrics() {
  static CrawlMetrics* metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    auto* m = new CrawlMetrics();
    m->pages = registry.GetCounter("wsie.crawler.fetch.pages");
    m->errors = registry.GetCounter("wsie.crawler.fetch.errors");
    m->retries = registry.GetCounter("wsie.crawler.fetch.retries");
    m->faults = registry.GetCounter("wsie.crawler.fetch.faults");
    m->robots_blocked = registry.GetCounter("wsie.crawler.robots.blocked");
    m->robots_unavailable =
        registry.GetCounter("wsie.crawler.robots.unavailable");
    m->breaker_skipped = registry.GetCounter("wsie.crawler.breaker.skipped");
    m->breaker_dropped = registry.GetCounter("wsie.crawler.breaker.dropped");
    m->host_budget_skipped =
        registry.GetCounter("wsie.crawler.gate.host_budget_skipped");
    m->trap_pages = registry.GetCounter("wsie.crawler.trap_pages");
    m->transcode_failures =
        registry.GetCounter("wsie.crawler.transcode_failures");
    m->classified_relevant =
        registry.GetCounter("wsie.crawler.classified.relevant");
    m->classified_irrelevant =
        registry.GetCounter("wsie.crawler.classified.irrelevant");
    m->batches = registry.GetCounter("wsie.crawler.batches");
    m->frontier_pending = registry.GetGauge("wsie.crawler.frontier.pending");
    m->frontier_known = registry.GetGauge("wsie.crawler.frontier.known");
    m->harvest_rate = registry.GetGauge("wsie.crawler.harvest_rate");
    m->backoff_total_ms = registry.GetGauge("wsie.fault.backoff.total_ms");
    m->checkpoint_write_ns =
        registry.GetHistogram("wsie.crawler.checkpoint.write_ns");
    return m;
  }();
  return *metrics;
}

}  // namespace

FocusedCrawler::FocusedCrawler(const web::SimulatedWeb* web,
                               const RelevanceClassifier* classifier,
                               CrawlerConfig config)
    : web_(web),
      classifier_(classifier),
      config_(config),
      crawl_db_(/*max_fetch_list_per_host=*/config.max_pages_per_host),
      prefilter_(config.length_filter),
      breaker_(config.breaker) {}

void FocusedCrawler::InjectSeeds(const std::vector<std::string>& seed_urls) {
  for (const std::string& url : seed_urls) {
    web::Url parsed;
    if (!web::ParseUrl(url, &parsed)) continue;
    if (config_.frontier_owner && !config_.frontier_owner(parsed.host)) {
      ExportUrl(url);
      continue;
    }
    crawl_db_.Inject(url, parsed.host);
    if (config_.follow_irrelevant_margin > 0) {
      margin_[url] = config_.follow_irrelevant_margin;
    }
  }
}

void FocusedCrawler::ExportUrl(const std::string& url) {
  if (exported_seen_.insert(url).second) exported_urls_.push_back(url);
}

std::vector<std::string> FocusedCrawler::TakeExportedUrls() {
  std::vector<std::string> out = std::move(exported_urls_);
  exported_urls_.clear();
  return out;
}

void FocusedCrawler::ResolveRobots(const std::vector<std::string>& batch) {
  for (const std::string& url : batch) {
    web::Url parsed;
    if (!web::ParseUrl(url, &parsed)) continue;
    if (robots_cache_.count(parsed.host) > 0) continue;
    int attempt = 0;
    for (;;) {
      Result<std::string> prefix =
          web_->CheckedRobotsDisallowPrefix(parsed.host, attempt);
      if (prefix.ok()) {
        robots_cache_[parsed.host] = *prefix;
        break;
      }
      if (config_.retry.ShouldRetry(prefix.status(), attempt)) {
        stats_.virtual_fetch_seconds +=
            config_.retry.BackoffMs(attempt, Fnv1a(parsed.host)) /
            1000.0 / static_cast<double>(config_.num_fetch_threads);
        ++stats_.fetch_retries;
        ++attempt;
        continue;
      }
      // Robots never answered: err on the polite side and treat the whole
      // host as disallowed (every path starts with "/").
      robots_cache_[parsed.host] = "/";
      ++stats_.robots_unavailable;
      break;
    }
  }
}

std::vector<std::string> FocusedCrawler::GateBatch(
    std::vector<std::string> batch) {
  std::vector<std::string> fetch_list;
  fetch_list.reserve(batch.size());
  for (std::string& url : batch) {
    web::Url parsed;
    if (!web::ParseUrl(url, &parsed)) {
      crawl_db_.MarkError(url);
      continue;
    }
    // Spider-trap / budget protection: total per-host cap.
    if (crawl_db_.HostFetchCount(parsed.host) > config_.max_pages_per_host) {
      ++stats_.host_budget_skipped;
      crawl_db_.MarkError(url);
      continue;
    }
    auto robots = robots_cache_.find(parsed.host);
    const std::string& prefix =
        robots == robots_cache_.end() ? std::string() : robots->second;
    if (!prefix.empty() && parsed.path.rfind(prefix, 0) == 0) {
      ++stats_.robots_blocked;
      crawl_db_.MarkError(url);
      continue;
    }
    if (breaker_.enabled() && !breaker_.Allow(parsed.host, stats_.batches)) {
      ++stats_.breaker_skipped;
      int& requeues = breaker_requeues_[url];
      if (++requeues > config_.breaker_requeue_limit) {
        ++stats_.breaker_dropped;
        crawl_db_.MarkError(url);
      } else {
        crawl_db_.Requeue(url);
      }
      continue;
    }
    fetch_list.push_back(std::move(url));
  }
  return fetch_list;
}

FocusedCrawler::FetchOutcome FocusedCrawler::FetchAndParse(
    const std::string& url) const {
  FetchOutcome outcome;
  WSIE_TRACE_SPAN("crawler.fetch");
  web::Url parsed;
  if (!web::ParseUrl(url, &parsed)) {
    outcome.fetch_failed = true;
    return outcome;
  }

  // --- Fetch with retries. Transient failures (time-outs, DNS errors, 5xx)
  // back off in virtual time and try again; everything else is permanent.
  web::FetchResult fetched;
  for (int attempt = 0;; ++attempt) {
    fetched = web_->Fetch(url, attempt);
    outcome.latency_ms += fetched.virtual_latency_ms;
    if (fetched.injected_fault != fault::FaultKind::kNone) {
      ++outcome.faulted_attempts;
    }
    if (fetched.status.ok()) break;
    if (!config_.retry.ShouldRetry(fetched.status, attempt)) {
      outcome.fetch_failed = true;
      return outcome;
    }
    double backoff = config_.retry.BackoffMs(attempt, Fnv1a(url));
    outcome.latency_ms += backoff;
    outcome.backoff_ms += backoff;
    ++outcome.retries;
  }
  // Per-host modeled fetch latency (including backoff). Worker-side but
  // safe: histogram writes are relaxed atomics; the label lookup only runs
  // when metrics are on.
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetHistogram(obs::WithLabel("wsie.crawler.fetch.latency_ms", "host",
                                     parsed.host),
                      obs::LatencyBucketsMs())
        ->Observe(outcome.latency_ms);
  }
  if (fetched.http_status != 200) {
    outcome.fetch_failed = true;
    return outcome;
  }

  outcome.is_trap = fetched.is_trap;
  outcome.has_ground_truth = fetched.page != nullptr;
  outcome.ground_truth_relevant =
      fetched.page != nullptr && fetched.page->relevant;

  // --- MIME filter on the raw response, before any HTML treatment
  // (Fig. 1: the MIME type filter is the first custom component).
  std::string_view head(fetched.body.data(),
                        std::min<size_t>(fetched.body.size(), 256));
  outcome.verdict = prefilter_.ApplyMime(url, head);

  // --- Parse: repair markup, then extract links and net text.
  if (outcome.verdict == FilterVerdict::kPass) {
    auto repaired = repair_.Repair(fetched.body);
    outcome.transcode_failed = !repaired.ok();
    if (!outcome.transcode_failed) {
      html::MarkupRemover remover;
      for (const std::string& link : remover.ExtractLinks(repaired->html)) {
        web::Url resolved;
        if (web::ResolveLink(parsed, link, &resolved)) {
          outcome.out_urls.push_back(resolved.ToString());
        }
      }
      outcome.net_text = boilerplate_.NetText(repaired->html);
      outcome.verdict = prefilter_.ApplyTextFilters(outcome.net_text);
    }
  }
  if (!outcome.transcode_failed && outcome.verdict == FilterVerdict::kPass) {
    double score = classifier_->RelevanceScore(outcome.net_text);
    if (config_.ie_feedback != nullptr) {
      // Consolidated crawl+IE (Sect. 5): blend the IE-derived signal into
      // the relevance decision.
      double w = config_.ie_feedback_weight;
      score = (1.0 - w) * score + w * config_.ie_feedback->Score(outcome.net_text);
    }
    outcome.classified_relevant =
        score >= classifier_->config().relevance_threshold;
  }
  return outcome;
}

void FocusedCrawler::ApplyOutcome(const std::string& url,
                                  FetchOutcome& outcome) {
  stats_.virtual_fetch_seconds +=
      outcome.latency_ms / 1000.0 /
      static_cast<double>(config_.num_fetch_threads);
  stats_.fetch_retries += outcome.retries;
  stats_.fetch_faults += outcome.faulted_attempts;
  GetCrawlMetrics().backoff_total_ms->Add(outcome.backoff_ms);
  if (outcome.fetch_failed) {
    ++stats_.fetch_errors;
    crawl_db_.MarkError(url);
    return;
  }
  crawl_db_.MarkFetched(url);

  ++stats_.fetched;
  if (outcome.is_trap) ++stats_.trap_pages;
  if (outcome.transcode_failed) ++stats_.transcode_failures;

  int child_margin = 0;
  bool add_outlinks = false;
  if (outcome.verdict == FilterVerdict::kPass && !outcome.transcode_failed) {
    if (outcome.classified_relevant) {
      ++stats_.classified_relevant;
      stats_.relevant_bytes += outcome.net_text.size();
      corpus::Document doc;
      doc.id = stats_.fetched;  // crawl-order id
      doc.kind = corpus::CorpusKind::kRelevantWeb;
      doc.url = url;
      doc.text = outcome.net_text;
      relevant_corpus_.Add(std::move(doc));
      add_outlinks = true;
      child_margin = config_.follow_irrelevant_margin;
    } else {
      ++stats_.classified_irrelevant;
      stats_.irrelevant_bytes += outcome.net_text.size();
      corpus::Document doc;
      doc.id = stats_.fetched;
      doc.kind = corpus::CorpusKind::kIrrelevantWeb;
      doc.url = url;
      doc.text = outcome.net_text;
      irrelevant_corpus_.Add(std::move(doc));
      // Follow-irrelevant margin: continue for up to n steps.
      auto it = margin_.find(url);
      int remaining = it == margin_.end() ? config_.follow_irrelevant_margin
                                          : it->second;
      if (remaining > 0) {
        add_outlinks = true;
        child_margin = remaining - 1;
      }
    }
    stats_.classification_vs_truth.Add(outcome.classified_relevant,
                                       outcome.ground_truth_relevant);
  }

  // --- Frontier + link graph updates.
  for (const std::string& out : outcome.out_urls) {
    link_db_.AddLink(url, out);
    if (!add_outlinks) continue;
    web::Url target;
    if (!web::ParseUrl(out, &target)) continue;
    // Sharded frontier: links to hosts another shard owns are exported to
    // the round driver instead of entering the local frontier.
    if (config_.frontier_owner && !config_.frontier_owner(target.host)) {
      ExportUrl(out);
      continue;
    }
    if (crawl_db_.Inject(out, target.host) &&
        config_.follow_irrelevant_margin > 0) {
      margin_[out] = child_margin;
    }
  }

  // --- Stop conditions.
  if (config_.max_relevant_bytes > 0 &&
      stats_.relevant_bytes >= config_.max_relevant_bytes) {
    stop_requested_ = true;
  }
  if (config_.max_pages > 0 && stats_.fetched >= config_.max_pages) {
    stop_requested_ = true;
  }
}

void FocusedCrawler::Crawl() {
  // Reuse a caller-provided fetcher pool when configured (so the crawler and
  // executor can share one set of threads) instead of spinning up a fresh
  // pool per Crawl() call.
  std::shared_ptr<ThreadPool> pool = config_.fetch_pool;
  if (!pool) pool = std::make_shared<ThreadPool>(config_.num_fetch_threads);
  stop_requested_ =
      (config_.max_pages > 0 && stats_.fetched >= config_.max_pages) ||
      (config_.max_relevant_bytes > 0 &&
       stats_.relevant_bytes >= config_.max_relevant_bytes);
  for (;;) {
    if (stop_requested_) break;
    if (config_.max_batches > 0 && stats_.batches >= config_.max_batches) {
      break;  // the fault-recovery bench's kill point (batch boundary)
    }
    WSIE_TRACE_SPAN("crawler.batch");
    // Registry publication works on batch deltas of the serial CrawlStats,
    // so the counters stay correct across multiple Crawl() calls and
    // checkpoint resumes.
    const CrawlStats before = stats_;
    std::vector<std::string> batch =
        crawl_db_.NextFetchBatch(config_.batch_size);
    if (batch.empty()) break;  // frontier exhausted (Sect. 2.2 failure mode)

    // Serial pre-pass: robots (with retries) and the politeness gate. The
    // fetch list and every crawl-state decision are fixed before any worker
    // runs.
    ResolveRobots(batch);
    std::vector<std::string> fetch_list = GateBatch(std::move(batch));

    // Parallel phase: workers fetch, retry, parse, and classify, writing
    // only their own outcome slot — no crawl state.
    std::vector<FetchOutcome> outcomes(fetch_list.size());
    if (!fetch_list.empty()) {
      Stopwatch processing;
      pool->MorselFor(fetch_list.size(), config_.num_fetch_threads,
                      [this, &fetch_list, &outcomes](size_t i) {
                        outcomes[i] = FetchAndParse(fetch_list[i]);
                        return true;
                      });
      stats_.processing_seconds += processing.ElapsedSeconds();
    }

    // Serial apply, in batch order: thread scheduling cannot influence
    // stats, document ids, frontier order, or the link graph.
    std::map<std::string, std::pair<uint64_t, uint64_t>> host_outcomes;
    for (size_t i = 0; i < fetch_list.size(); ++i) {
      ApplyOutcome(fetch_list[i], outcomes[i]);
      if (breaker_.enabled()) {
        web::Url parsed;
        if (web::ParseUrl(fetch_list[i], &parsed)) {
          auto& [failures, successes] = host_outcomes[parsed.host];
          outcomes[i].fetch_failed ? ++failures : ++successes;
        }
      }
    }
    for (const auto& [host, counts] : host_outcomes) {
      breaker_.RecordBatch(host, counts.first, counts.second, stats_.batches);
    }
    ++stats_.batches;

    if (obs::MetricsEnabled()) {
      CrawlMetrics& m = GetCrawlMetrics();
      m.pages->Add(stats_.fetched - before.fetched);
      m.errors->Add(stats_.fetch_errors - before.fetch_errors);
      m.retries->Add(stats_.fetch_retries - before.fetch_retries);
      m.faults->Add(stats_.fetch_faults - before.fetch_faults);
      m.robots_blocked->Add(stats_.robots_blocked - before.robots_blocked);
      m.robots_unavailable->Add(stats_.robots_unavailable -
                                before.robots_unavailable);
      m.breaker_skipped->Add(stats_.breaker_skipped - before.breaker_skipped);
      m.breaker_dropped->Add(stats_.breaker_dropped - before.breaker_dropped);
      m.host_budget_skipped->Add(stats_.host_budget_skipped -
                                 before.host_budget_skipped);
      m.trap_pages->Add(stats_.trap_pages - before.trap_pages);
      m.transcode_failures->Add(stats_.transcode_failures -
                                before.transcode_failures);
      m.classified_relevant->Add(stats_.classified_relevant -
                                 before.classified_relevant);
      m.classified_irrelevant->Add(stats_.classified_irrelevant -
                                   before.classified_irrelevant);
      m.batches->Increment();
      m.frontier_pending->Set(static_cast<double>(crawl_db_.num_pending()));
      m.frontier_known->Set(static_cast<double>(crawl_db_.num_known()));
      m.harvest_rate->Set(stats_.HarvestRate());
    }

    if (config_.checkpoint_every_batches > 0 &&
        !config_.checkpoint_path.empty() &&
        stats_.batches % config_.checkpoint_every_batches == 0) {
      Status saved;
      {
        obs::ScopedTimer timer(GetCrawlMetrics().checkpoint_write_ns,
                               "crawler.checkpoint");
        saved = SaveCheckpoint(config_.checkpoint_path);
      }
      if (!saved.ok()) {
        WSIE_LOG(kWarning) << "checkpoint failed: " << saved.ToString();
      }
    }
  }
}

Status FocusedCrawler::SaveCheckpoint(const std::string& path) const {
  fault::Checkpoint ckpt;
  std::string bytes;
  crawl_db_.EncodeTo(&bytes);
  ckpt.SetSection("crawl_db", std::move(bytes));
  bytes.clear();
  link_db_.EncodeTo(&bytes);
  ckpt.SetSection("link_db", std::move(bytes));
  bytes.clear();
  stats_.EncodeTo(&bytes);
  ckpt.SetSection("stats", std::move(bytes));
  bytes.clear();
  EncodeStringU64Map(margin_, &bytes);
  ckpt.SetSection("margins", std::move(bytes));
  bytes.clear();
  EncodeStringU64Map(breaker_requeues_, &bytes);
  ckpt.SetSection("breaker_requeues", std::move(bytes));
  bytes.clear();
  EncodeRobotsCache(robots_cache_, &bytes);
  ckpt.SetSection("robots_cache", std::move(bytes));
  bytes.clear();
  breaker_.EncodeTo(&bytes);
  ckpt.SetSection("breaker", std::move(bytes));
  bytes.clear();
  EncodeCorpus(relevant_corpus_, &bytes);
  EncodeCorpus(irrelevant_corpus_, &bytes);
  ckpt.SetSection("corpora", std::move(bytes));
  return ckpt.WriteFile(path);
}

Status FocusedCrawler::RestoreCheckpoint(const std::string& path) {
  Result<fault::Checkpoint> loaded = fault::Checkpoint::ReadFile(path);
  if (!loaded.ok()) return loaded.status();
  const fault::Checkpoint& ckpt = *loaded;
  const char* kSections[] = {"crawl_db", "link_db",         "stats",
                             "margins",  "breaker_requeues", "robots_cache",
                             "breaker",  "corpora"};
  for (const char* name : kSections) {
    if (ckpt.FindSection(name) == nullptr) {
      return Status::InvalidArgument(std::string("checkpoint: missing section ") +
                                     name);
    }
  }

  // Decode everything into temporaries first; the crawler is only touched
  // once the whole checkpoint has parsed.
  CrawlStats stats;
  std::string_view stats_in = *ckpt.FindSection("stats");
  WSIE_RETURN_NOT_OK(stats.DecodeFrom(&stats_in));
  std::unordered_map<std::string, int> margin, requeues;
  WSIE_RETURN_NOT_OK(
      DecodeStringU64Map(*ckpt.FindSection("margins"), "margins", &margin));
  WSIE_RETURN_NOT_OK(DecodeStringU64Map(*ckpt.FindSection("breaker_requeues"),
                                          "breaker requeues", &requeues));
  std::unordered_map<std::string, std::string> robots;
  WSIE_RETURN_NOT_OK(
      DecodeRobotsCache(*ckpt.FindSection("robots_cache"), &robots));
  corpus::DocumentStore relevant, irrelevant;
  std::string_view corpora_in = *ckpt.FindSection("corpora");
  WSIE_RETURN_NOT_OK(DecodeCorpus(&corpora_in, &relevant));
  WSIE_RETURN_NOT_OK(DecodeCorpus(&corpora_in, &irrelevant));

  // CrawlDb / LinkDb / breaker decode transactionally into themselves.
  WSIE_RETURN_NOT_OK(crawl_db_.DecodeFrom(*ckpt.FindSection("crawl_db")));
  WSIE_RETURN_NOT_OK(link_db_.DecodeFrom(*ckpt.FindSection("link_db")));
  std::string_view breaker_in = *ckpt.FindSection("breaker");
  WSIE_RETURN_NOT_OK(breaker_.DecodeFrom(&breaker_in));

  stats_ = stats;
  margin_ = std::move(margin);
  breaker_requeues_ = std::move(requeues);
  robots_cache_ = std::move(robots);
  relevant_corpus_ = std::move(relevant);
  irrelevant_corpus_ = std::move(irrelevant);
  stop_requested_ = false;
  return Status::OK();
}

}  // namespace wsie::crawler
