#include "web/simulated_web.h"

#include <algorithm>
#include <cstdlib>

#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "fault/wire_format.h"
#include "obs/metrics.h"

namespace wsie::web {

SimulatedWeb::SimulatedWeb(const SyntheticWeb* web,
                           const corpus::EntityLexicons* lexicons,
                           RendererConfig renderer_config,
                           FetchLatencyModel latency)
    : web_(web),
      renderer_(web, lexicons, renderer_config),
      latency_(latency) {}

std::string SimulatedWeb::RobotsDisallowPrefix(
    std::string_view host_name) const {
  const HostInfo* host = web_->FindHost(host_name);
  if (host == nullptr) return "";
  return host->robots_disallow_prefix;
}

Result<std::string> SimulatedWeb::CheckedRobotsDisallowPrefix(
    std::string_view host_name, int attempt) const {
  if (fault_plan_ != nullptr &&
      !fault_plan_->RobotsAvailable(host_name, attempt)) {
    return Status::Unavailable("robots.txt flapping for " +
                               std::string(host_name));
  }
  return RobotsDisallowPrefix(host_name);
}

FetchResult SimulatedWeb::RenderTrapPage(const HostInfo& host,
                                         std::string_view path) const {
  // "/day?p=N" -> page linking to p=N+1 and p=N+2: a dynamically generated
  // infinite chain, the classic calendar spider trap (Sect. 2.1).
  FetchResult result;
  result.is_trap = true;
  long n = 0;
  size_t eq = path.rfind("p=");
  if (eq != std::string_view::npos) {
    n = std::strtol(std::string(path.substr(eq + 2)).c_str(), nullptr, 10);
  }
  std::string& body = result.body;
  body = "<!DOCTYPE html>\n<html><head><title>Calendar day " +
         std::to_string(n) + "</title></head><body>\n";
  body += "<p>Events for day " + std::to_string(n) + ": none scheduled.</p>\n";
  body += "<p><a href=\"http://" + host.name + "/day?p=" +
          std::to_string(n + 1) + "\">next day</a> ";
  body += "<a href=\"http://" + host.name + "/day?p=" +
          std::to_string(n + 2) + "\">skip a day</a></p>\n";
  body += "</body></html>\n";
  result.content_type = "text/html";
  return result;
}

void SimulatedWeb::ApplyBodyFault(const fault::FaultDecision& decision,
                                  FetchResult* result) const {
  if (decision.kind == fault::FaultKind::kTruncatedBody) {
    // Connection dropped mid-body: keep a prefix, likely splitting a tag.
    size_t keep = static_cast<size_t>(static_cast<double>(result->body.size()) *
                                      decision.keep_frac);
    result->body.resize(std::min(keep, result->body.size()));
  } else if (decision.kind == fault::FaultKind::kGarbledBody) {
    // Bit rot in flight: overwrite a deterministic sample of bytes.
    Rng rng(decision.mangle_seed);
    size_t n = result->body.size();
    if (n > 0) {
      size_t damaged = std::max<size_t>(1, n / 50);  // ~2% of the bytes
      for (size_t i = 0; i < damaged; ++i) {
        size_t pos = rng.Uniform(n);
        result->body[pos] = static_cast<char>(0x80 + rng.Uniform(0x40));
      }
    }
  }
}

FetchResult SimulatedWeb::Fetch(std::string_view url, int attempt) const {
  fetch_count_.fetch_add(1);
  static obs::Counter* attempts =
      obs::MetricsRegistry::Global().GetCounter("wsie.web.fetch.attempts");
  attempts->Increment();
  Url parsed;
  FetchResult result;
  if (!ParseUrl(url, &parsed)) {
    result.http_status = 404;
    return result;
  }

  // Consult the fault plan before touching the host: DNS errors and
  // time-outs happen before any server-side work.
  fault::FaultDecision fault_decision;
  if (fault_plan_ != nullptr) {
    fault_decision = fault_plan_->Decide(parsed.host, parsed.path, attempt);
    result.injected_fault = fault_decision.kind;
    switch (fault_decision.kind) {
      case fault::FaultKind::kTimeout:
        result.status = Status::Timeout("fetch timed out: " + std::string(url));
        result.http_status = 0;
        result.virtual_latency_ms = fault_decision.extra_latency_ms;
        return result;
      case fault::FaultKind::kDnsError:
        result.status =
            Status::Unavailable("dns resolution failed: " + parsed.host);
        result.http_status = 0;
        result.virtual_latency_ms = fault_decision.extra_latency_ms;
        return result;
      case fault::FaultKind::kHttp5xx:
        result.status =
            Status::Unavailable("server returned 503: " + std::string(url));
        result.http_status = 503;
        result.virtual_latency_ms = latency_.base_ms;
        result.content_type = "text/html";
        result.body = "<html><body><h1>503 Service Unavailable</h1></body></html>";
        return result;
      default:
        break;  // slow/truncate/garble damage the normal response below
    }
  }

  const HostInfo* host = web_->FindHost(parsed.host);
  if (host == nullptr) {
    result.http_status = 404;
    return result;
  }
  if (parsed.path == "/robots.txt") {
    result.content_type = "text/plain";
    result.body = "User-agent: *\n";
    if (!host->robots_disallow_prefix.empty()) {
      result.body += "Disallow: " + host->robots_disallow_prefix + "\n";
    }
    return result;
  }
  if (host->topic == HostTopic::kTrap) {
    result = RenderTrapPage(*host, parsed.path);
    result.injected_fault = fault_decision.kind;
  } else {
    const PageInfo* page = web_->FindPage(url);
    if (page == nullptr) {
      result.http_status = 404;
      return result;
    }
    RenderedPage rendered = renderer_.Render(*page);
    result.body = std::move(rendered.html);
    result.page = page;
    // Content-type header: servers lie for the misleading-extension pages,
    // reproducing the MIME-detection pitfall (Sect. 5).
    result.content_type = "text/html";
  }
  ApplyBodyFault(fault_decision, &result);

  // Virtual latency: deterministic jitter keyed on (url, attempt) — never
  // on shared counters, so latency totals are identical across thread
  // schedules and across a kill/resume boundary.
  uint64_t jitter_key = fault::wire::Mix(Fnv1a(url),
                                         static_cast<uint64_t>(attempt));
  double jitter =
      latency_.jitter_ms * (static_cast<double>(jitter_key % 1000) / 1000.0);
  result.virtual_latency_ms =
      latency_.base_ms +
      latency_.per_kb_ms * (static_cast<double>(result.body.size()) / 1024.0) +
      jitter;
  result.virtual_latency_ms *= fault_decision.slow_factor;
  return result;
}

}  // namespace wsie::web
