#include "fault/checkpoint.h"

#include <cstdio>
#include <fstream>

#include "common/hash.h"
#include "fault/wire_format.h"

namespace wsie::fault {
namespace {

constexpr std::string_view kMagic = "WSIECKPT\n";
constexpr uint64_t kVersion = 1;

}  // namespace

std::string Checkpoint::Serialize() const {
  std::string out(kMagic);
  wire::PutU64(&out, kVersion);
  wire::PutU64(&out, sections_.size());
  for (const auto& [name, payload] : sections_) {
    wire::PutString(&out, name);
    wire::PutString(&out, payload);
  }
  wire::PutU64(&out, Fnv1a(out));
  return out;
}

Result<Checkpoint> Checkpoint::Deserialize(std::string_view bytes) {
  if (bytes.substr(0, kMagic.size()) != kMagic) {
    return Status::InvalidArgument("checkpoint: bad magic");
  }
  // The checksum line is the last token; everything before it is covered.
  if (bytes.empty() || bytes.back() != '\n') {
    return Status::InvalidArgument("checkpoint: truncated");
  }
  size_t checksum_start = bytes.find_last_of('\n', bytes.size() - 2);
  if (checksum_start == std::string_view::npos) {
    return Status::InvalidArgument("checkpoint: truncated");
  }
  ++checksum_start;
  std::string_view checksum_line = bytes.substr(checksum_start);
  uint64_t stored_checksum = 0;
  if (!wire::GetU64(&checksum_line, &stored_checksum)) {
    return Status::InvalidArgument("checkpoint: malformed checksum");
  }
  std::string_view covered = bytes.substr(0, checksum_start);
  if (Fnv1a(covered) != stored_checksum) {
    return Status::InvalidArgument("checkpoint: checksum mismatch");
  }

  std::string_view in = covered;
  in.remove_prefix(kMagic.size());
  uint64_t version = 0;
  uint64_t count = 0;
  if (!wire::GetU64(&in, &version) || version != kVersion ||
      !wire::GetU64(&in, &count)) {
    return Status::InvalidArgument("checkpoint: malformed header");
  }
  Checkpoint checkpoint;
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    std::string payload;
    if (!wire::GetString(&in, &name) || !wire::GetString(&in, &payload)) {
      return Status::InvalidArgument("checkpoint: malformed section");
    }
    checkpoint.sections_[std::move(name)] = std::move(payload);
  }
  return checkpoint;
}

Status Checkpoint::WriteFile(const std::string& path) const {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("checkpoint: cannot open " + tmp);
    std::string bytes = Serialize();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::Internal("checkpoint: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("checkpoint: rename to " + path + " failed");
  }
  return Status::OK();
}

Result<Checkpoint> Checkpoint::ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("checkpoint: cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return Deserialize(bytes);
}

}  // namespace wsie::fault
