#include "fault/fault_plan.h"

#include <algorithm>

#include "common/hash.h"
#include "common/rng.h"
#include "fault/wire_format.h"
#include "obs/metrics.h"

namespace wsie::fault {
namespace {

/// One registry counter per fault kind, labeled by the kind name; resolved
/// once so Decide() pays a single indexed Add per injected fault.
obs::Counter* InjectedCounterFor(FaultKind kind) {
  static std::array<obs::Counter*, kNumFaultKinds>* counters = [] {
    auto* c = new std::array<obs::Counter*, kNumFaultKinds>();
    for (int k = 0; k < kNumFaultKinds; ++k) {
      (*c)[static_cast<size_t>(k)] = obs::MetricsRegistry::Global().GetCounter(
          obs::WithLabel("wsie.fault.injected", "kind",
                         FaultKindName(static_cast<FaultKind>(k))));
    }
    return c;
  }();
  return (*counters)[static_cast<size_t>(kind)];
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kDnsError:
      return "dns-error";
    case FaultKind::kHttp5xx:
      return "http-5xx";
    case FaultKind::kSlowResponse:
      return "slow-response";
    case FaultKind::kTruncatedBody:
      return "truncated-body";
    case FaultKind::kGarbledBody:
      return "garbled-body";
  }
  return "?";
}

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(config) {}

bool FaultPlan::HostIsFlaky(std::string_view host) const {
  // One seeded draw per host name; independent of everything else the plan
  // decides, so adding fault kinds never reshuffles host assignment.
  uint64_t h = wire::Mix(config_.seed, Fnv1a(host));
  Rng rng(wire::Mix(h, 0xf1ab7ULL));
  return rng.NextDouble() < config_.flaky_host_frac;
}

const HostFaultProfile& FaultPlan::ProfileFor(std::string_view host) const {
  return HostIsFlaky(host) ? config_.flaky : config_.stable;
}

FaultDecision FaultPlan::Decide(std::string_view host, std::string_view path,
                                int attempt) const {
  decisions_.fetch_add(1, std::memory_order_relaxed);
  FaultDecision decision;
  if (attempt >= config_.max_faulty_attempts) return decision;
  const HostFaultProfile& profile = ProfileFor(host);
  if (profile.TotalFaultProb() <= 0.0) return decision;

  // The decision RNG is derived from (seed, host, path, attempt) only:
  // replayable from any checkpoint, identical across thread schedules.
  Rng rng(wire::Mix(wire::Mix(config_.seed, Fnv1a(host)),
                    wire::Mix(Fnv1a(path), static_cast<uint64_t>(attempt))));
  double u = rng.NextDouble();
  double cum = 0.0;
  auto hit = [&](double p) {
    cum += p;
    return u < cum;
  };
  if (hit(profile.timeout_prob)) {
    decision.kind = FaultKind::kTimeout;
    decision.extra_latency_ms = profile.timeout_latency_ms;
  } else if (hit(profile.dns_prob)) {
    decision.kind = FaultKind::kDnsError;
    decision.extra_latency_ms = profile.timeout_latency_ms * 0.25;
  } else if (hit(profile.http5xx_prob)) {
    decision.kind = FaultKind::kHttp5xx;
  } else if (hit(profile.slow_prob)) {
    decision.kind = FaultKind::kSlowResponse;
    decision.slow_factor = profile.slow_factor;
  } else if (hit(profile.truncate_prob)) {
    decision.kind = FaultKind::kTruncatedBody;
    decision.keep_frac = 0.2 + 0.6 * rng.NextDouble();
  } else if (hit(profile.garble_prob)) {
    decision.kind = FaultKind::kGarbledBody;
    decision.mangle_seed = rng.Next();
  }
  if (decision.kind == FaultKind::kNone) return decision;

  counts_[static_cast<size_t>(decision.kind)].fetch_add(
      1, std::memory_order_relaxed);
  faults_injected_.fetch_add(1, std::memory_order_relaxed);
  InjectedCounterFor(decision.kind)->Increment();
  if (config_.record_trace) {
    std::lock_guard<std::mutex> lock(trace_mu_);
    trace_.push_back(FaultEvent{std::string(host), std::string(path), attempt,
                                decision.kind});
  }
  return decision;
}

bool FaultPlan::RobotsAvailable(std::string_view host, int attempt) const {
  if (attempt >= config_.max_faulty_attempts) return true;
  const HostFaultProfile& profile = ProfileFor(host);
  if (profile.robots_flap_prob <= 0.0) return true;
  Rng rng(wire::Mix(wire::Mix(config_.seed, Fnv1a(host)),
                    wire::Mix(0x0b075ULL, static_cast<uint64_t>(attempt))));
  return rng.NextDouble() >= profile.robots_flap_prob;
}

std::vector<FaultEvent> FaultPlan::SortedTrace() const {
  std::vector<FaultEvent> trace;
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    trace = trace_;
  }
  std::sort(trace.begin(), trace.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.host != b.host) return a.host < b.host;
              if (a.path != b.path) return a.path < b.path;
              if (a.attempt != b.attempt) return a.attempt < b.attempt;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return trace;
}

void FaultPlan::ClearTrace() {
  std::lock_guard<std::mutex> lock(trace_mu_);
  trace_.clear();
}

}  // namespace wsie::fault
