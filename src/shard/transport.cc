#include "shard/transport.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/hash.h"
#include "obs/trace.h"

namespace wsie::shard {
namespace {

constexpr uint32_t kFrameMagic = 0x57535846;  // "WSXF"
// magic, channel, from, to, rows, trace_id, parent_span, payload length.
constexpr size_t kHeaderBytes = 4 + 4 + 4 + 4 + 4 + 8 + 8 + 8;
constexpr size_t kPayloadLenOffset = 36;
constexpr size_t kTrailerBytes = 8;
constexpr uint64_t kMaxPayloadBytes = 1ull << 30;

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kHeaderBytes + frame.payload.size() + kTrailerBytes);
  PutU32(kFrameMagic, &out);
  PutU32(static_cast<uint32_t>(frame.channel), &out);
  PutU32(static_cast<uint32_t>(frame.from), &out);
  PutU32(static_cast<uint32_t>(frame.to), &out);
  PutU32(frame.rows, &out);
  PutU64(frame.trace_id, &out);
  PutU64(frame.parent_span, &out);
  PutU64(frame.payload.size(), &out);
  out.append(frame.payload);
  PutU64(Fnv1a(frame.payload, kFnv1aShortBasis), &out);
  return out;
}

/// Decodes a frame header into `frame`'s six fixed fields and
/// `*payload_len`, rejecting a bad magic or a payload over the 1 GiB cap.
Status DecodeHeader(const char* p, Frame* frame, uint64_t* payload_len) {
  if (GetU32(p) != kFrameMagic) {
    return Status::InvalidArgument("transport: bad frame magic");
  }
  *payload_len = GetU64(p + kPayloadLenOffset);
  if (*payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("transport: oversized frame");
  }
  frame->channel = static_cast<int32_t>(GetU32(p + 4));
  frame->from = static_cast<int32_t>(GetU32(p + 8));
  frame->to = static_cast<int32_t>(GetU32(p + 12));
  frame->rows = GetU32(p + 16);
  frame->trace_id = GetU64(p + 20);
  frame->parent_span = GetU64(p + 28);
  return Status::OK();
}

Status CheckTrailer(const char* trailer, const std::string& payload) {
  if (GetU64(trailer) != Fnv1a(payload, kFnv1aShortBasis)) {
    return Status::InvalidArgument("transport: frame checksum mismatch");
  }
  return Status::OK();
}

/// Parses one complete frame from the front of `buf`, erasing its bytes.
/// Returns true when a frame was extracted; `*error` is set on corruption.
bool ExtractFrame(std::string* buf, Frame* frame, Status* error) {
  if (buf->size() < kHeaderBytes) return false;
  const char* p = buf->data();
  uint64_t payload_len = 0;
  *error = DecodeHeader(p, frame, &payload_len);
  if (!error->ok()) return false;
  const size_t total = kHeaderBytes + payload_len + kTrailerBytes;
  if (buf->size() < total) return false;
  frame->payload.assign(p + kHeaderBytes, payload_len);
  *error = CheckTrailer(p + kHeaderBytes + payload_len, frame->payload);
  if (!error->ok()) return false;
  buf->erase(0, total);
  return true;
}

Status SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("transport: send failed: ") +
                                 std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RecvExact(int fd, char* data, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("transport: recv failed: ") +
                                 std::strerror(errno));
    }
    if (n == 0) return Status::Unavailable("transport: peer closed");
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

size_t DatasetBytes(const dataflow::Dataset& records) {
  size_t bytes = 0;
  for (const dataflow::Record& record : records) bytes += record.ByteSize();
  return bytes;
}

}  // namespace

Result<dataflow::Dataset> Transport::Recv(int channel, int from, int to) {
  const auto deadline = std::chrono::steady_clock::now() + kRecvTimeout;
  const auto address = std::make_tuple(channel, from, to);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!abort_status_.ok() && channel >= 0) return abort_status_;
    auto it = mailbox_.find(address);
    if (it != mailbox_.end() && !it->second.empty()) {
      dataflow::Dataset records = std::move(it->second.front());
      it->second.pop_front();
      return records;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Timeout("transport: recv timed out on channel " +
                             std::to_string(channel));
    }
    WSIE_RETURN_NOT_OK(AwaitMessage(lock, channel, from, deadline));
  }
}

void Transport::Abort(Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!abort_status_.ok()) return;
    abort_status_ = std::move(status);
  }
  parked_.notify_all();
}

void Transport::Park(int channel, int from, int to,
                     dataflow::Dataset records) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    mailbox_[{channel, from, to}].push_back(std::move(records));
  }
  parked_.notify_all();
}

Status Transport::abort_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return abort_status_;
}

Frame Transport::StampFrame(int channel, int from, int to,
                            const dataflow::Dataset& records) {
  Frame frame;
  frame.channel = channel;
  frame.from = from;
  frame.to = to;
  frame.rows = static_cast<uint32_t>(records.size());
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  frame.trace_id = ctx.trace_id;
  frame.parent_span = ctx.span_id;
  EncodeDataset(records, &frame.payload);
  RecordTraffic(channel, to, records.size(), frame.payload.size());
  return frame;
}

TransportStats Transport::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TransportStats stats = stats_;
  for (const auto& [channel, width] : channel_width_) {
    uint64_t total = 0;
    uint64_t max_rows = 0;
    for (size_t dest = 0; dest < width; ++dest) {
      auto it = channel_dest_rows_.find({channel, static_cast<int>(dest)});
      const uint64_t rows = it == channel_dest_rows_.end() ? 0 : it->second;
      total += rows;
      max_rows = std::max(max_rows, rows);
    }
    if (total == 0) continue;
    const double mean =
        static_cast<double>(total) / static_cast<double>(width);
    stats.max_hash_skew =
        std::max(stats.max_hash_skew, static_cast<double>(max_rows) / mean);
  }
  return stats;
}

void Transport::RecordTraffic(int channel, int to, size_t rows,
                              size_t bytes) {
  if (channel < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.messages;
  stats_.rows += rows;
  stats_.bytes += bytes;
  if (to >= 0 && static_cast<size_t>(to) < num_shards_) {
    channel_dest_rows_[{channel, to}] += rows;
    channel_width_[channel] = num_shards_;
  }
}

Status InProcessTransport::Send(int channel, int from, int to,
                                dataflow::Dataset records) {
  WSIE_RETURN_NOT_OK(abort_status());
  RecordTraffic(channel, to, records.size(), DatasetBytes(records));
  Park(channel, from, to, std::move(records));
  return Status::OK();
}

Status InProcessTransport::AwaitMessage(
    std::unique_lock<std::mutex>& lock, int /*channel*/, int /*from*/,
    std::chrono::steady_clock::time_point deadline) {
  parked_.wait_until(lock, deadline);
  return Status::OK();
}

Status WriteFrame(int fd, const Frame& frame) {
  const std::string bytes = EncodeFrame(frame);
  return SendAll(fd, bytes.data(), bytes.size());
}

Result<Frame> ReadFrame(int fd) {
  char header[kHeaderBytes];
  WSIE_RETURN_NOT_OK(RecvExact(fd, header, sizeof(header)));
  Frame frame;
  uint64_t payload_len = 0;
  WSIE_RETURN_NOT_OK(DecodeHeader(header, &frame, &payload_len));
  frame.payload.resize(payload_len);
  if (payload_len > 0) {
    WSIE_RETURN_NOT_OK(RecvExact(fd, frame.payload.data(), payload_len));
  }
  char trailer[kTrailerBytes];
  WSIE_RETURN_NOT_OK(RecvExact(fd, trailer, sizeof(trailer)));
  WSIE_RETURN_NOT_OK(CheckTrailer(trailer, frame.payload));
  return frame;
}

Status SocketTransport::Send(int channel, int from, int to,
                             dataflow::Dataset records) {
  WSIE_RETURN_NOT_OK(abort_status());
  return WriteFrame(fd_, StampFrame(channel, from, to, records));
}

Status SocketTransport::AwaitMessage(
    std::unique_lock<std::mutex>& lock, int /*channel*/, int /*from*/,
    std::chrono::steady_clock::time_point /*deadline*/) {
  lock.unlock();
  Status status = [this]() -> Status {
    WSIE_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
    // First stamped frame seen by a context-less worker parents its spans.
    if (frame.trace_id != 0 && obs::CurrentTraceContext().trace_id == 0) {
      obs::SetTraceContext({frame.trace_id, frame.parent_span});
    }
    WSIE_ASSIGN_OR_RETURN(dataflow::Dataset records,
                          DecodeDataset(frame.payload));
    Park(frame.channel, frame.from, frame.to, std::move(records));
    return Status::OK();
  }();
  lock.lock();
  return status;
}

HubTransport::HubTransport(std::vector<int> worker_fds)
    : Transport(worker_fds.size()),
      fds_(std::move(worker_fds)),
      inbuf_(fds_.size()),
      outbuf_(fds_.size()),
      closed_(fds_.size(), false) {
  for (int fd : fds_) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

HubTransport::~HubTransport() {
  for (size_t i = 0; i < fds_.size(); ++i) {
    if (fds_[i] >= 0) ::close(fds_[i]);
  }
}

Status HubTransport::Send(int channel, int from, int to,
                          dataflow::Dataset records) {
  WSIE_RETURN_NOT_OK(abort_status());
  if (to < 0 || static_cast<size_t>(to) >= num_shards_) {
    return Status::InvalidArgument("hub: bad destination shard");
  }
  if (closed_[static_cast<size_t>(to)]) {
    return Status::Unavailable("hub: shard " + std::to_string(to) +
                               " closed its transport");
  }
  outbuf_[static_cast<size_t>(to)].append(
      EncodeFrame(StampFrame(channel, from, to, records)));
  return Pump(std::chrono::milliseconds(0));
}

void HubTransport::Abort(Status status) {
  Transport::Abort(std::move(status));
  for (size_t i = 0; i < fds_.size(); ++i) {
    outbuf_[i].clear();
    if (!closed_[i]) ::shutdown(fds_[i], SHUT_WR);
  }
}

Status HubTransport::AwaitMessage(
    std::unique_lock<std::mutex>& lock, int channel, int from,
    std::chrono::steady_clock::time_point /*deadline*/) {
  if (from >= 0 && static_cast<size_t>(from) < num_shards_ &&
      closed_[static_cast<size_t>(from)]) {
    return Status::Unavailable("hub: shard " + std::to_string(from) +
                               " closed before sending channel " +
                               std::to_string(channel));
  }
  lock.unlock();
  Status pumped = Pump(std::chrono::milliseconds(50));
  lock.lock();
  return pumped;
}

Status HubTransport::Pump(std::chrono::milliseconds wait) {
  std::vector<pollfd> polls;
  std::vector<size_t> owners;
  for (size_t i = 0; i < fds_.size(); ++i) {
    if (closed_[i]) continue;
    pollfd p{};
    p.fd = fds_[i];
    p.events = POLLIN;
    if (!outbuf_[i].empty()) p.events |= POLLOUT;
    polls.push_back(p);
    owners.push_back(i);
  }
  if (polls.empty()) return Status::OK();
  const int ready = ::poll(polls.data(), polls.size(),
                           static_cast<int>(wait.count()));
  if (ready < 0 && errno != EINTR) {
    return Status::Unavailable(std::string("hub: poll failed: ") +
                               std::strerror(errno));
  }
  if (ready <= 0) return Status::OK();
  // After an abort the links are half-closed: relays are dropped, while
  // frames for the coordinator (control frames above all) are still parked.
  const bool relaying = abort_status().ok();
  char buf[1 << 16];
  for (size_t p = 0; p < polls.size(); ++p) {
    const size_t i = owners[p];
    if (polls[p].revents & POLLOUT) {
      while (!outbuf_[i].empty()) {
        const ssize_t n = ::send(fds_[i], outbuf_[i].data(),
                                 outbuf_[i].size(), MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
          closed_[i] = true;
          break;
        }
        outbuf_[i].erase(0, static_cast<size_t>(n));
      }
    }
    if (polls[p].revents & (POLLIN | POLLHUP | POLLERR)) {
      for (;;) {
        const ssize_t n = ::recv(fds_[i], buf, sizeof(buf), 0);
        if (n > 0) {
          inbuf_[i].append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) closed_[i] = true;
        if (n < 0 && errno == EINTR) continue;
        break;  // EAGAIN (drained) or closed
      }
      Frame frame;
      Status error;
      while (ExtractFrame(&inbuf_[i], &frame, &error)) {
        RecordTraffic(frame.channel, frame.to, frame.rows,
                      frame.payload.size());
        if (frame.to >= 0 && static_cast<size_t>(frame.to) < num_shards_) {
          // Worker-to-worker traffic: relay the frame verbatim.
          if (relaying) {
            outbuf_[static_cast<size_t>(frame.to)].append(EncodeFrame(frame));
          }
          continue;
        }
        auto records = DecodeDataset(frame.payload);
        if (!records.ok()) return records.status();
        Park(frame.channel, frame.from, frame.to, std::move(records).value());
      }
      if (!error.ok()) return error;
    }
  }
  return Status::OK();
}

}  // namespace wsie::shard
