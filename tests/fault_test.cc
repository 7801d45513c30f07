#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "fault/checkpoint.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_plan.h"
#include "fault/retry_policy.h"
#include "fault/wire_format.h"
#include "shard/partitioner.h"

namespace wsie::fault {
namespace {

// ---------------------------------------------------------- wire format

TEST(WireFormatTest, U64RoundTrip) {
  std::string buf;
  wire::PutU64(&buf, 0);
  wire::PutU64(&buf, 42);
  wire::PutU64(&buf, ~uint64_t{0});
  std::string_view in(buf);
  uint64_t v = 1;
  ASSERT_TRUE(wire::GetU64(&in, &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(wire::GetU64(&in, &v));
  EXPECT_EQ(v, 42u);
  ASSERT_TRUE(wire::GetU64(&in, &v));
  EXPECT_EQ(v, ~uint64_t{0});
  EXPECT_TRUE(in.empty());
  EXPECT_FALSE(wire::GetU64(&in, &v));  // exhausted
}

TEST(WireFormatTest, DoubleRoundTripIsExact) {
  // Hexfloat encoding must reproduce the bit pattern, including values that
  // decimal shortest-round-trip printing tends to mangle.
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           3.141592653589793,
                           6.02214076e23,
                           5e-324,  // min denormal
                           -123456.789012345};
  std::string buf;
  for (double v : values) wire::PutDouble(&buf, v);
  std::string_view in(buf);
  for (double expected : values) {
    double v = 99.0;
    ASSERT_TRUE(wire::GetDouble(&in, &v));
    EXPECT_EQ(std::memcmp(&v, &expected, sizeof v), 0)
        << "expected " << expected << " got " << v;
  }
}

TEST(WireFormatTest, StringRoundTripWithBinaryBytes) {
  std::string nasty("line\nbreak\0null\xff high", 21);
  std::string buf;
  wire::PutString(&buf, nasty);
  wire::PutString(&buf, "");
  std::string_view in(buf);
  std::string out;
  ASSERT_TRUE(wire::GetString(&in, &out));
  EXPECT_EQ(out, nasty);
  ASSERT_TRUE(wire::GetString(&in, &out));
  EXPECT_EQ(out, "");
}

TEST(WireFormatTest, MalformedInputFailsSafely) {
  uint64_t v;
  double d;
  std::string s;
  std::string_view not_a_number("abc\n");
  EXPECT_FALSE(wire::GetU64(&not_a_number, &v));
  std::string_view no_delim("123");
  EXPECT_FALSE(wire::GetU64(&no_delim, &v));
  std::string_view bad_double("zz\n");
  EXPECT_FALSE(wire::GetDouble(&bad_double, &d));
  // String whose declared length exceeds the remaining bytes.
  std::string truncated;
  wire::PutU64(&truncated, 1000);
  truncated += "short";
  std::string_view in(truncated);
  EXPECT_FALSE(wire::GetString(&in, &s));
}

TEST(WireFormatTest, MixAndFnvAreStable) {
  EXPECT_EQ(Fnv1a("host-3.example"), Fnv1a("host-3.example"));
  EXPECT_NE(Fnv1a("host-3.example"), Fnv1a("host-4.example"));
  EXPECT_EQ(wire::Mix(1, 2), wire::Mix(1, 2));
  EXPECT_NE(wire::Mix(1, 2), wire::Mix(2, 1));
  // FNV-1a 64 known answers.
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ULL);
  // The checkpoint trailer checksum (MANIFEST and segment files) and the
  // shard ring placement are persisted or exchanged between processes;
  // these values must never move.
  Checkpoint checkpoint;
  checkpoint.SetSection("alpha", "one");
  checkpoint.SetSection("beta", std::string("two\n\0bytes", 10));
  const std::string bytes = checkpoint.Serialize();
  EXPECT_TRUE(bytes.ends_with("\n15953028018902844064\n")) << bytes;
  shard::HashRing ring(4);
  EXPECT_EQ(ring.ShardForKey("doc-0"), 0);
  EXPECT_EQ(ring.ShardForKey("doc-1"), 3);
  EXPECT_EQ(ring.ShardForKey("doc-42"), 2);
  EXPECT_EQ(ring.ShardForKey("gene:BRCA1"), 1);
}

// ------------------------------------------------------------ fault plan

TEST(FaultPlanTest, DecisionsAreDeterministic) {
  FaultPlanConfig config;
  config.seed = 1234;
  config.flaky_host_frac = 1.0;  // every host flaky: maximal fault surface
  FaultPlan a(config), b(config);
  for (int h = 0; h < 50; ++h) {
    std::string host = "host-" + std::to_string(h) + ".example";
    EXPECT_EQ(a.HostIsFlaky(host), b.HostIsFlaky(host));
    for (int p = 0; p < 10; ++p) {
      std::string path = "/page/" + std::to_string(p);
      for (int attempt = 0; attempt < 3; ++attempt) {
        FaultDecision da = a.Decide(host, path, attempt);
        FaultDecision db = b.Decide(host, path, attempt);
        EXPECT_EQ(da.kind, db.kind);
        EXPECT_EQ(da.extra_latency_ms, db.extra_latency_ms);
        EXPECT_EQ(da.mangle_seed, db.mangle_seed);
      }
      EXPECT_EQ(a.RobotsAvailable(host, p % 3), b.RobotsAvailable(host, p % 3));
    }
  }
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0u) << "default profile should fire on "
                                     << a.decisions() << " decisions";
  EXPECT_EQ(a.SortedTrace().size(), b.SortedTrace().size());
  EXPECT_TRUE(a.SortedTrace() == b.SortedTrace());
}

TEST(FaultPlanTest, TraceIsScheduleIndependent) {
  // The same decision set issued from many threads in scrambled order must
  // leave the identical sorted trace as a serial pass — the subsystem's
  // determinism guard at the plan level.
  FaultPlanConfig config;
  config.seed = 77;
  config.flaky_host_frac = 1.0;
  FaultPlan serial(config), threaded(config);
  constexpr int kHosts = 12, kPaths = 24;
  for (int h = 0; h < kHosts; ++h) {
    for (int p = 0; p < kPaths; ++p) {
      serial.Decide("h" + std::to_string(h), "/p" + std::to_string(p), 0);
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&threaded, t] {
      // Each thread covers a strided subset; union covers everything.
      for (int i = t; i < kHosts * kPaths; i += 4) {
        threaded.Decide("h" + std::to_string(i / kPaths),
                        "/p" + std::to_string(i % kPaths), 0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(serial.SortedTrace() == threaded.SortedTrace());
}

TEST(FaultPlanTest, StableHostsNeverFault) {
  FaultPlanConfig config;
  config.flaky_host_frac = 0.0;
  FaultPlan plan(config);
  for (int i = 0; i < 100; ++i) {
    FaultDecision d = plan.Decide("any-host", "/p" + std::to_string(i), 0);
    EXPECT_EQ(d.kind, FaultKind::kNone);
  }
  EXPECT_EQ(plan.faults_injected(), 0u);
}

TEST(FaultPlanTest, FlakyFractionRoughlyMatchesConfig) {
  FaultPlanConfig config;
  config.flaky_host_frac = 0.35;
  FaultPlan plan(config);
  int flaky = 0;
  const int kHosts = 2000;
  for (int i = 0; i < kHosts; ++i) {
    if (plan.HostIsFlaky("host-" + std::to_string(i) + ".example")) ++flaky;
  }
  double frac = static_cast<double>(flaky) / kHosts;
  EXPECT_NEAR(frac, 0.35, 0.05);
}

TEST(FaultPlanTest, AttemptsBeyondBudgetAreServedClean) {
  FaultPlanConfig config;
  config.flaky_host_frac = 1.0;
  config.max_faulty_attempts = 2;
  FaultPlan plan(config);
  for (int h = 0; h < 200; ++h) {
    std::string host = "h" + std::to_string(h);
    EXPECT_EQ(plan.Decide(host, "/x", 2).kind, FaultKind::kNone);
    EXPECT_EQ(plan.Decide(host, "/x", 7).kind, FaultKind::kNone);
    EXPECT_TRUE(plan.RobotsAvailable(host, 2));
  }
}

TEST(FaultPlanTest, CountersMatchTrace) {
  FaultPlanConfig config;
  config.flaky_host_frac = 1.0;
  FaultPlan plan(config);
  for (int i = 0; i < 500; ++i) {
    plan.Decide("host-" + std::to_string(i % 20), "/p" + std::to_string(i), 0);
  }
  uint64_t by_kind = 0;
  for (int k = 1; k < kNumFaultKinds; ++k) {
    by_kind += plan.CountOf(static_cast<FaultKind>(k));
  }
  EXPECT_EQ(by_kind, plan.faults_injected());
  EXPECT_EQ(plan.SortedTrace().size(), plan.faults_injected());
  plan.ClearTrace();
  EXPECT_TRUE(plan.SortedTrace().empty());
}

// ----------------------------------------------------------- retry policy

TEST(RetryPolicyTest, RetryEligibility) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_TRUE(policy.ShouldRetry(Status::Timeout("t"), 0));
  EXPECT_TRUE(policy.ShouldRetry(Status::Unavailable("u"), 1));
  EXPECT_FALSE(policy.ShouldRetry(Status::Unavailable("u"), 2));  // exhausted
  EXPECT_FALSE(policy.ShouldRetry(Status::NotFound("404"), 0));   // permanent
  EXPECT_FALSE(policy.ShouldRetry(Status::OK(), 0));
  policy.max_attempts = 1;  // retries disabled
  EXPECT_FALSE(policy.ShouldRetry(Status::Timeout("t"), 0));
}

TEST(RetryPolicyTest, BackoffIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.base_backoff_ms = 100.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 500.0;
  policy.jitter_frac = 0.2;
  for (int attempt = 0; attempt < 6; ++attempt) {
    double term = std::min(100.0 * std::pow(2.0, attempt), 500.0);
    double b1 = policy.BackoffMs(attempt, /*key=*/0xabc);
    double b2 = policy.BackoffMs(attempt, /*key=*/0xabc);
    EXPECT_EQ(b1, b2);
    EXPECT_GE(b1, term * 0.8);
    EXPECT_LE(b1, term * 1.2);
  }
  // Different keys jitter differently (with overwhelming probability).
  EXPECT_NE(policy.BackoffMs(1, 1), policy.BackoffMs(1, 2));
  // Jitter off: exact exponential.
  policy.jitter_frac = 0.0;
  EXPECT_EQ(policy.BackoffMs(0, 7), 100.0);
  EXPECT_EQ(policy.BackoffMs(2, 7), 400.0);
  EXPECT_EQ(policy.BackoffMs(5, 7), 500.0);  // capped
}

// --------------------------------------------------------- circuit breaker

TEST(CircuitBreakerTest, DisabledBreakerAllowsEverything) {
  HostCircuitBreaker breaker;  // failure_threshold = 0
  EXPECT_FALSE(breaker.enabled());
  breaker.RecordBatch("h", /*failures=*/100, /*successes=*/0, /*tick=*/0);
  EXPECT_TRUE(breaker.Allow("h", 1));
  EXPECT_EQ(breaker.times_opened(), 0u);
}

TEST(CircuitBreakerTest, TripsAfterThresholdAndCoolsDown) {
  CircuitBreakerConfig config;
  config.failure_threshold = 5;
  config.open_ticks = 3;
  HostCircuitBreaker breaker(config);
  EXPECT_TRUE(breaker.Allow("h", 0));
  breaker.RecordBatch("h", 3, 0, /*tick=*/0);
  EXPECT_TRUE(breaker.Allow("h", 1)) << "below threshold";
  breaker.RecordBatch("h", 2, 0, /*tick=*/1);  // streak hits 5: trips
  EXPECT_FALSE(breaker.Allow("h", 2));
  EXPECT_FALSE(breaker.Allow("h", 3));
  EXPECT_TRUE(breaker.Allow("h", 4)) << "open_ticks elapsed";
  EXPECT_EQ(breaker.times_opened(), 1u);
  EXPECT_TRUE(breaker.Allow("other-host", 2)) << "breaker is per-host";
}

TEST(CircuitBreakerTest, SuccessResetsTheStreak) {
  CircuitBreakerConfig config;
  config.failure_threshold = 4;
  HostCircuitBreaker breaker(config);
  breaker.RecordBatch("h", 3, 0, 0);
  breaker.RecordBatch("h", 0, 1, 1);  // one success: streak cleared
  breaker.RecordBatch("h", 3, 0, 2);
  EXPECT_TRUE(breaker.Allow("h", 3)) << "3 + 3 with a success between";
  EXPECT_EQ(breaker.times_opened(), 0u);
}

TEST(CircuitBreakerTest, SerializationRoundTrip) {
  CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.open_ticks = 10;
  HostCircuitBreaker breaker(config);
  breaker.RecordBatch("a", 2, 0, 5);  // opens until tick 15
  breaker.RecordBatch("b", 1, 0, 6);  // streak 1
  std::string bytes;
  breaker.EncodeTo(&bytes);

  HostCircuitBreaker restored(config);
  std::string_view in(bytes);
  ASSERT_TRUE(restored.DecodeFrom(&in).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(restored.times_opened(), 1u);
  EXPECT_FALSE(restored.Allow("a", 14));
  EXPECT_TRUE(restored.Allow("a", 15));
  restored.RecordBatch("b", 1, 0, 7);  // restored streak 1 + 1 = threshold
  EXPECT_FALSE(restored.Allow("b", 8));

  std::string_view garbage("not a breaker\n");
  HostCircuitBreaker scratch(config);
  EXPECT_FALSE(scratch.DecodeFrom(&garbage).ok());
}

// -------------------------------------------------------------- checkpoint

TEST(CheckpointTest, SerializeDeserializeRoundTrip) {
  Checkpoint ckpt;
  ckpt.SetSection("alpha", "payload-a");
  ckpt.SetSection("beta", std::string("bin\0\n\xff", 6));
  ckpt.SetSection("gamma", "");
  std::string bytes = ckpt.Serialize();

  Result<Checkpoint> restored = Checkpoint::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_sections(), 3u);
  ASSERT_NE(restored->FindSection("alpha"), nullptr);
  EXPECT_EQ(*restored->FindSection("alpha"), "payload-a");
  EXPECT_EQ(*restored->FindSection("beta"), std::string("bin\0\n\xff", 6));
  EXPECT_EQ(*restored->FindSection("gamma"), "");
  EXPECT_EQ(restored->FindSection("missing"), nullptr);
}

TEST(CheckpointTest, SerializationIsCanonical) {
  // Insertion order must not leak into the bytes (sections are sorted).
  Checkpoint a, b;
  a.SetSection("x", "1");
  a.SetSection("y", "2");
  b.SetSection("y", "2");
  b.SetSection("x", "1");
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(CheckpointTest, RejectsCorruptBytes) {
  Checkpoint ckpt;
  ckpt.SetSection("data", "the quick brown fox");
  std::string bytes = ckpt.Serialize();

  // Bit damage anywhere must be caught by the checksum (or framing).
  for (size_t pos : {size_t{0}, bytes.size() / 2, bytes.size() - 2}) {
    std::string corrupt = bytes;
    corrupt[pos] ^= 0x20;
    EXPECT_FALSE(Checkpoint::Deserialize(corrupt).ok())
        << "flip at " << pos << " accepted";
  }
  // Truncation (torn write).
  EXPECT_FALSE(Checkpoint::Deserialize(bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(Checkpoint::Deserialize("").ok());
  EXPECT_FALSE(Checkpoint::Deserialize("WSIECKPT\n").ok());
  EXPECT_FALSE(Checkpoint::Deserialize("random junk, no magic").ok());
}

TEST(CheckpointTest, FileRoundTripAndMissingFile) {
  std::string path = testing::TempDir() + "wsie_ckpt_test.bin";
  Checkpoint ckpt;
  ckpt.SetSection("frontier", "url1\nurl2\n");
  ASSERT_TRUE(ckpt.WriteFile(path).ok());

  Result<Checkpoint> restored = Checkpoint::ReadFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored->FindSection("frontier"), "url1\nurl2\n");

  // Overwrite is atomic: a second write replaces, never appends.
  ckpt.SetSection("frontier", "url3\n");
  ASSERT_TRUE(ckpt.WriteFile(path).ok());
  restored = Checkpoint::ReadFile(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored->FindSection("frontier"), "url3\n");

  EXPECT_FALSE(Checkpoint::ReadFile(path + ".does-not-exist").ok());
  // A corrupt file on disk is rejected too.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "WSIECKPT\ngarbage";
  }
  EXPECT_FALSE(Checkpoint::ReadFile(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wsie::fault
