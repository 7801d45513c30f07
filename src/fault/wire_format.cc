#include "fault/wire_format.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace wsie::fault::wire {
namespace {

/// Consumes characters up to the next '\n' (which is also consumed) and
/// returns them in `token`. Fails when no delimiter is present.
bool NextToken(std::string_view* in, std::string_view* token) {
  size_t nl = in->find('\n');
  if (nl == std::string_view::npos) return false;
  *token = in->substr(0, nl);
  in->remove_prefix(nl + 1);
  return true;
}

}  // namespace

void PutU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
  out->push_back('\n');
}

void PutDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out->append(buf);
  out->push_back('\n');
}

void PutString(std::string* out, std::string_view s) {
  PutU64(out, s.size());
  out->append(s);
  out->push_back('\n');
}

bool GetU64(std::string_view* in, uint64_t* v) {
  std::string_view token;
  if (!NextToken(in, &token) || token.empty()) return false;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    uint64_t next = value * 10 + static_cast<uint64_t>(c - '0');
    if (next < value) return false;  // overflow
    value = next;
  }
  *v = value;
  return true;
}

bool GetDouble(std::string_view* in, double* v) {
  std::string_view token;
  if (!NextToken(in, &token) || token.empty()) return false;
  std::string buf(token);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *v = value;
  return true;
}

bool GetString(std::string_view* in, std::string* s) {
  uint64_t len = 0;
  if (!GetU64(in, &len)) return false;
  if (in->size() < len + 1) return false;  // payload + trailing '\n'
  s->assign(in->data(), len);
  if ((*in)[len] != '\n') return false;
  in->remove_prefix(len + 1);
  return true;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace wsie::fault::wire
