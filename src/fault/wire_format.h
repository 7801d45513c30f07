#ifndef WSIE_FAULT_WIRE_FORMAT_H_
#define WSIE_FAULT_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace wsie::fault::wire {

/// Minimal deterministic wire format shared by every checkpoint section
/// (CrawlDb, LinkDb, stats, breaker state, corpora). Integers are written
/// as decimal text, doubles as hexfloat (exact round-trip, so a resumed
/// crawl accumulates from bit-identical values), strings length-prefixed
/// (URLs and net text may contain any byte). Every Put appends a trailing
/// '\n' delimiter; Gets consume it and fail (return false) on malformed
/// input instead of crashing, which is what the corrupt-checkpoint
/// rejection path relies on.
void PutU64(std::string* out, uint64_t v);
void PutDouble(std::string* out, double v);
void PutString(std::string* out, std::string_view s);

bool GetU64(std::string_view* in, uint64_t* v);
bool GetDouble(std::string_view* in, double* v);
bool GetString(std::string_view* in, std::string* s);

/// splitmix64-style combiner for deriving per-(host,path,attempt) fault
/// decision seeds from the plan seed.
uint64_t Mix(uint64_t a, uint64_t b);

}  // namespace wsie::fault::wire

#endif  // WSIE_FAULT_WIRE_FORMAT_H_
