#ifndef WSIE_OBS_REMOTE_H_
#define WSIE_OBS_REMOTE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wsie::obs {

/// One process's observability payload: its full MetricsSnapshot plus its
/// balanced TraceRecorder streams. Shard workers capture one at fragment
/// completion and ship it coordinator-ward in their end-of-run control
/// frame (the CollectRemote hop); the coordinator decodes, re-bases clocks,
/// and merges.
struct ObsBundle {
  int shard = -1;
  int os_pid = 0;
  /// Sender-side TraceRecorder::NowNs() at encode time — the clock
  /// re-basing handshake: receiver_offset = receiver_now - now_ns.
  uint64_t now_ns = 0;
  uint64_t trace_dropped = 0;  ///< ring overwrites on the sender
  MetricsSnapshot metrics;
  std::vector<TraceRecorder::ThreadStream> streams;
};

/// Captures this process's bundle from the global registry and recorder.
ObsBundle CaptureObsBundle(int shard);

/// Checksummed wire form, reusing the fault::Checkpoint framing (magic,
/// version, length-prefixed sections, FNV-1a trailer): Decode rejects
/// truncated or bit-flipped input instead of half-loading it, with the
/// same guarantees as the store/checkpoint codecs.
std::string EncodeObsBundle(const ObsBundle& bundle);
Result<ObsBundle> DecodeObsBundle(std::string_view bytes);

/// Shard-wide merge: counters sum exactly; gauges keep per-shard identity
/// via an appended {shard="k"} label (a mean of last-write-wins values is
/// meaningless); histograms with identical bounds add bucket-wise, and a
/// bounds mismatch falls back to the labeled per-shard form rather than
/// guessing. Output is in sorted-name order, so equal inputs merge to
/// byte-equal snapshots.
MetricsSnapshot MergeSnapshots(const std::vector<ObsBundle>& bundles);

/// Appends {key="value"} to a metric name, merging into an existing label
/// block ("a{x=\"1\"}" -> "a{x=\"1\",key=\"value\"}").
std::string AppendMetricLabel(std::string_view name, std::string_view key,
                              std::string_view value);

/// One process's contribution to a stitched trace.
struct ProcessTrace {
  int pid = 1;            ///< Chrome pid (coordinator 1, worker k = 2+k)
  int64_t offset_ns = 0;  ///< added to every timestamp (clock re-base)
  std::vector<TraceRecorder::ThreadStream> streams;
  uint64_t dropped = 0;  ///< ring overwrites in that process
};

struct StitchReport {
  size_t processes = 0;  ///< processes that contributed at least one event
  size_t threads = 0;
  size_t events = 0;
  uint64_t dropped = 0;  ///< merger-visible ring overwrites, summed
};

/// Emits one Chrome trace document with a distinct pid per process and
/// every timestamp re-based by its process's offset — the stitched view
/// ValidateChromeTrace accepts: per-(pid,tid) balanced streams with
/// non-decreasing timestamps (a constant per-process offset preserves the
/// per-thread order the recorder exported).
std::string StitchChromeTrace(const std::vector<ProcessTrace>& processes,
                              StitchReport* report = nullptr);

}  // namespace wsie::obs

#endif  // WSIE_OBS_REMOTE_H_
