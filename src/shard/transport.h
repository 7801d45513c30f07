#ifndef WSIE_SHARD_TRANSPORT_H_
#define WSIE_SHARD_TRANSPORT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/value.h"
#include "shard/wire.h"

namespace wsie::shard {

/// Control channel: each forked worker sends exactly one frame here after
/// its last fragment, carrying its ShardWorkerStats record and its encoded
/// ObsBundle. Negative, so it never collides with a planner channel and
/// stays out of the traffic/skew stats.
inline constexpr int kControlChannel = -1;

/// How long a Recv waits for its message. A shard may legitimately spend
/// minutes inside one fragment (a cold dictionary build), and a dead peer
/// is normally reported much sooner — by Abort or a closed socket — so the
/// deadline only bounds a peer that hangs without dying.
inline constexpr std::chrono::milliseconds kRecvTimeout{120000};

/// Aggregate traffic seen by a transport. `max_hash_skew` is the worst
/// max/mean row ratio across destinations of any single channel — the skew
/// a bad partition key produces.
struct TransportStats {
  uint64_t messages = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  double max_hash_skew = 0.0;
};

/// Framed messages over a stream socket:
///   u32 magic | i32 channel | i32 from | i32 to | u32 rows |
///   u64 trace_id | u64 parent_span | u64 payload length |
///   payload (wire-codec dataset) | u64 FNV-1a(payload)
/// WriteFrame/ReadFrame handle short reads/writes; ReadFrame verifies the
/// checksum and rejects malformed headers. The (trace_id, parent_span)
/// pair is the distributed trace context: every frame a transport sends is
/// stamped with the process's current context, and a worker whose context
/// is still empty adopts the pair from the first frame it receives — so
/// shard-fragment spans carry causal parents even when the worker did not
/// inherit the context across fork.
struct Frame {
  int channel = 0;
  int from = 0;
  int to = 0;
  uint32_t rows = 0;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  std::string payload;
};

Status WriteFrame(int fd, const Frame& frame);
Result<Frame> ReadFrame(int fd);

/// Point-to-point dataset channels between the coordinator (endpoint id ==
/// num_shards) and the worker shards (ids 0..num_shards-1). A message is
/// addressed by (channel, from, to); Recv blocks until the matching message
/// arrives, kRecvTimeout passes, or the transport is aborted. Messages on
/// the same address are delivered in send order.
///
/// The base class owns the one mailbox every transport parks arrivals in,
/// the abort state and the traffic accounting; a subclass only moves
/// messages (Send) and waits for more to arrive (AwaitMessage).
class Transport {
 public:
  explicit Transport(size_t num_shards) : num_shards_(num_shards) {}
  virtual ~Transport() = default;

  virtual Status Send(int channel, int from, int to,
                      dataflow::Dataset records) = 0;
  Result<dataflow::Dataset> Recv(int channel, int from, int to);

  /// Fails all current and future Send/Recv calls with `status` (the first
  /// abort wins) — called when an endpoint fails so its peers unblock
  /// instead of waiting out the deadline. Control-channel messages are
  /// still delivered afterwards: they carry the workers' own account of
  /// the failed run.
  virtual void Abort(Status status);

  TransportStats Stats() const;

 protected:
  /// Waits until more messages may have been parked for Recv. Called with
  /// `lock` (the mailbox lock) held when (channel, from, to) has nothing
  /// parked; may release it while blocking, but must hold it on return.
  virtual Status AwaitMessage(std::unique_lock<std::mutex>& lock,
                              int channel, int from,
                              std::chrono::steady_clock::time_point deadline) = 0;

  /// Queues an arrived message for Recv and wakes any waiter.
  void Park(int channel, int from, int to, dataflow::Dataset records);
  Status abort_status() const;
  /// Encodes `records` as one frame stamped with the current trace context,
  /// counting it as traffic.
  Frame StampFrame(int channel, int from, int to,
                   const dataflow::Dataset& records);
  /// Records one message for the stats/skew accounting. Channels < 0
  /// (control traffic) are not counted.
  void RecordTraffic(int channel, int to, size_t rows, size_t bytes);

  const size_t num_shards_;
  std::condition_variable parked_;  ///< signalled by Park and Abort

 private:
  mutable std::mutex mu_;
  std::map<std::tuple<int, int, int>, std::deque<dataflow::Dataset>> mailbox_;
  Status abort_status_;
  TransportStats stats_;
  /// rows per (channel, destination shard) — skew is computed per channel.
  std::map<std::pair<int, int>, uint64_t> channel_dest_rows_;
  std::map<int, size_t> channel_width_;
};

/// The in-process transport: datasets move through the mailbox without
/// serialization; `bytes` counts their in-memory footprint so skew/bytes
/// metrics stay comparable with the socket transport.
class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(size_t num_shards) : Transport(num_shards) {}

  Status Send(int channel, int from, int to,
              dataflow::Dataset records) override;

 private:
  Status AwaitMessage(std::unique_lock<std::mutex>& lock, int channel,
                      int from,
                      std::chrono::steady_clock::time_point deadline) override;
};

/// Worker-side endpoint of the socketpair transport: one full-duplex fd to
/// the coordinator hub, which relays shard-to-shard frames. Out-of-order
/// arrivals (another channel's frame first) are parked until asked for.
class SocketTransport : public Transport {
 public:
  SocketTransport(int fd, size_t num_shards)
      : Transport(num_shards), fd_(fd) {}

  Status Send(int channel, int from, int to,
              dataflow::Dataset records) override;

 private:
  Status AwaitMessage(std::unique_lock<std::mutex>& lock, int channel,
                      int from,
                      std::chrono::steady_clock::time_point deadline) override;

  const int fd_;
};

/// Coordinator-side hub over one socketpair per worker: owns all fds,
/// relays worker→worker frames, and parks worker→coordinator frames until
/// Recv asks for them. Single-threaded — the coordinator loop drives it —
/// with non-blocking fds and per-worker outbound queues so a relay never
/// deadlocks against a worker that is itself mid-send.
class HubTransport : public Transport {
 public:
  explicit HubTransport(std::vector<int> worker_fds);
  ~HubTransport() override;

  Status Send(int channel, int from, int to,
              dataflow::Dataset records) override;
  /// Also half-closes every worker link: a worker still waiting for a frame
  /// reads end-of-stream and fails, then sends its control frame.
  void Abort(Status status) override;

 private:
  Status AwaitMessage(std::unique_lock<std::mutex>& lock, int channel,
                      int from,
                      std::chrono::steady_clock::time_point deadline) override;
  /// One poll round: flush pending outbound bytes, read whatever arrived,
  /// park or relay complete frames. `wait` bounds the poll blocking time.
  Status Pump(std::chrono::milliseconds wait);

  std::vector<int> fds_;
  std::vector<std::string> inbuf_;   ///< partial inbound frame per worker
  std::vector<std::string> outbuf_;  ///< pending outbound bytes per worker
  std::vector<bool> closed_;
};

}  // namespace wsie::shard

#endif  // WSIE_SHARD_TRANSPORT_H_
