#include "store/posting_codec.h"

#include <array>
#include <cstring>

#include "common/varint.h"

namespace wsie::store {
namespace {

// --------------------------------------------------------------- scalar

/// Decodes `count` delta/varint postings (the scalar v1 body) from `*in`.
/// Shared by the v1 decoder and the v2 scalar-fallback payload.
Status DecodeScalarPostings(std::string_view* in, uint64_t count,
                            std::vector<Posting>* out) {
  uint64_t doc = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta = 0, sentence = 0, begin = 0, length = 0;
    if (!GetVarint(in, &delta) || !GetVarint(in, &sentence) ||
        !GetVarint(in, &begin) || !GetVarint(in, &length)) {
      return Status::InvalidArgument("posting list: truncated posting");
    }
    if (i > 0 && doc + delta < doc) {
      return Status::InvalidArgument("posting list: doc id overflow");
    }
    doc = i == 0 ? delta : doc + delta;
    if (sentence > UINT32_MAX || begin > UINT32_MAX || length > UINT32_MAX ||
        begin + length > UINT32_MAX) {
      return Status::InvalidArgument("posting list: field overflow");
    }
    Posting p;
    p.doc_id = doc;
    p.sentence = static_cast<uint32_t>(sentence);
    p.begin = static_cast<uint32_t>(begin);
    p.end = static_cast<uint32_t>(begin + length);
    out->push_back(p);
  }
  return Status::OK();
}

/// Validates sortedness/spans exactly like the scalar encoder does.
Status ValidatePostingOrder(const std::vector<Posting>& postings) {
  Posting prev;
  bool first = true;
  for (const Posting& p : postings) {
    if (!first && p < prev) {
      return Status::InvalidArgument("posting list not sorted");
    }
    if (p.end < p.begin) {
      return Status::InvalidArgument("posting span end < begin");
    }
    prev = p;
    first = false;
  }
  return Status::OK();
}

// --------------------------------------------------------- group varint

constexpr uint8_t kGvFlagScalar = 0x00;
constexpr uint8_t kGvFlagGrouped = 0x01;

/// Byte length (1..4) of a uint32 value.
constexpr uint32_t GvByteLen(uint32_t v) {
  return v < (1u << 8) ? 1 : v < (1u << 16) ? 2 : v < (1u << 24) ? 3 : 4;
}

/// Per-control-byte decode tables: the pshufb/tbl mask scattering the
/// packed value bytes into four little-endian uint32 lanes (0xff lanes
/// shuffle in zero), plus the packed payload length.
struct GvTables {
  uint8_t shuffle[256][16] = {};
  uint8_t length[256] = {};
};

constexpr GvTables BuildGvTables() {
  GvTables tables;
  for (int control = 0; control < 256; ++control) {
    uint8_t offset = 0;
    for (int value = 0; value < 4; ++value) {
      const uint8_t len = static_cast<uint8_t>(((control >> (2 * value)) & 3) + 1);
      for (int byte = 0; byte < 4; ++byte) {
        tables.shuffle[control][4 * value + byte] =
            byte < len ? static_cast<uint8_t>(offset + byte) : 0xff;
      }
      offset = static_cast<uint8_t>(offset + len);
    }
    tables.length[control] = offset;
  }
  return tables;
}

constexpr GvTables kGv = BuildGvTables();

/// Appends one group-varint posting: control byte + packed value bytes.
void PutGvGroup(std::string* out, const uint32_t values[4]) {
  uint8_t control = 0;
  char packed[16];
  size_t n = 0;
  for (int i = 0; i < 4; ++i) {
    const uint32_t len = GvByteLen(values[i]);
    control |= static_cast<uint8_t>((len - 1) << (2 * i));
    uint32_t v = values[i];
    for (uint32_t b = 0; b < len; ++b) {
      packed[n++] = static_cast<char>(v & 0xff);
      v >>= 8;
    }
  }
  out->push_back(static_cast<char>(control));
  out->append(packed, n);
}

/// Scalar decode of one group: bounds-checked byte loads. Used for the
/// input tail (fewer than 16 readable payload bytes) and as the full
/// fallback on hosts without a shuffle unit.
bool GetGvGroup(std::string_view* in, uint32_t values[4]) {
  if (in->empty()) return false;
  const uint8_t control = static_cast<uint8_t>((*in)[0]);
  const size_t payload = kGv.length[control];
  if (in->size() < 1 + payload) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(in->data()) + 1;
  for (int i = 0; i < 4; ++i) {
    const uint32_t len = ((control >> (2 * i)) & 3) + 1;
    uint32_t v = 0;
    for (uint32_t b = 0; b < len; ++b) {
      v |= static_cast<uint32_t>(p[b]) << (8 * b);
    }
    values[i] = v;
    p += len;
  }
  in->remove_prefix(1 + payload);
  return true;
}

/// Folds four decoded lanes into the posting stream with the same checks
/// the scalar decoder applies. `index` is the posting's position.
Status AppendDecodedPosting(const uint32_t values[4], uint64_t index,
                            uint64_t* doc, std::vector<Posting>* out) {
  const uint64_t delta = values[0];
  if (index > 0 && *doc + delta < *doc) {
    return Status::InvalidArgument("posting list: doc id overflow");
  }
  *doc = index == 0 ? delta : *doc + delta;
  const uint64_t begin = values[2];
  const uint64_t length = values[3];
  if (begin + length > UINT32_MAX) {
    return Status::InvalidArgument("posting list: field overflow");
  }
  Posting p;
  p.doc_id = *doc;
  p.sentence = values[1];
  p.begin = static_cast<uint32_t>(begin);
  p.end = static_cast<uint32_t>(begin + length);
  out->push_back(p);
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------ SIMD kernels
//
// The SIMD path decodes groups while at least 16 payload bytes are
// readable past the control byte (one unaligned 16-byte load covers any
// group), then hands the tail to the bounds-checked scalar group decoder.
// Each kernel consumes as many full postings as it safely can and reports
// how many, leaving `*in` advanced past them.

#if defined(__x86_64__) || defined(__i386__)
#define WSIE_GV_X86 1
#include <immintrin.h>

namespace {

__attribute__((target("ssse3"))) Status DecodeGroupsSsse3(
    std::string_view* in, uint64_t count, uint64_t* index, uint64_t* doc,
    std::vector<Posting>* out) {
  const char* p = in->data();
  const char* end = p + in->size();
  while (*index < count && end - p >= 17) {
    const uint8_t control = static_cast<uint8_t>(*p);
    __m128i data =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 1));
    __m128i mask = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(kGv.shuffle[control]));
    alignas(16) uint32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                    _mm_shuffle_epi8(data, mask));
    p += 1 + kGv.length[control];
    Status status = AppendDecodedPosting(lanes, *index, doc, out);
    if (!status.ok()) {
      in->remove_prefix(static_cast<size_t>(p - in->data()));
      return status;
    }
    ++*index;
  }
  in->remove_prefix(static_cast<size_t>(p - in->data()));
  return Status::OK();
}

bool HostHasSsse3() {
  static const bool has = __builtin_cpu_supports("ssse3");
  return has;
}

}  // namespace

#elif defined(__aarch64__)
#define WSIE_GV_NEON 1
#include <arm_neon.h>

namespace {

Status DecodeGroupsNeon(std::string_view* in, uint64_t count, uint64_t* index,
                        uint64_t* doc, std::vector<Posting>* out) {
  const char* p = in->data();
  const char* end = p + in->size();
  while (*index < count && end - p >= 17) {
    const uint8_t control = static_cast<uint8_t>(*p);
    uint8x16_t data = vld1q_u8(reinterpret_cast<const uint8_t*>(p + 1));
    uint8x16_t mask = vld1q_u8(kGv.shuffle[control]);
    alignas(16) uint32_t lanes[4];
    // Out-of-range mask bytes (0xff) yield zero, matching pshufb.
    vst1q_u8(reinterpret_cast<uint8_t*>(lanes), vqtbl1q_u8(data, mask));
    p += 1 + kGv.length[control];
    Status status = AppendDecodedPosting(lanes, *index, doc, out);
    if (!status.ok()) {
      in->remove_prefix(static_cast<size_t>(p - in->data()));
      return status;
    }
    ++*index;
  }
  in->remove_prefix(static_cast<size_t>(p - in->data()));
  return Status::OK();
}

}  // namespace
#endif

bool GroupVarintSimdActive() {
#if defined(WSIE_GV_X86)
  return HostHasSsse3();
#elif defined(WSIE_GV_NEON)
  return true;
#else
  return false;
#endif
}

Status EncodePostingList(const std::vector<Posting>& postings,
                         std::string* out) {
  PutVarint(out, postings.size());
  Posting prev;
  bool first = true;
  for (const Posting& p : postings) {
    if (!first && p < prev) {
      return Status::InvalidArgument("posting list not sorted");
    }
    if (p.end < p.begin) {
      return Status::InvalidArgument("posting span end < begin");
    }
    PutVarint(out, p.doc_id - (first ? 0 : prev.doc_id));
    PutVarint(out, p.sentence);
    PutVarint(out, p.begin);
    PutVarint(out, p.end - p.begin);
    prev = p;
    first = false;
  }
  return Status::OK();
}

Status DecodePostingList(std::string_view* in, std::vector<Posting>* out) {
  uint64_t count = 0;
  if (!GetVarint(in, &count)) {
    return Status::InvalidArgument("posting list: bad count");
  }
  // Each posting takes at least 4 encoded bytes; a count beyond that bound
  // is corruption — reject before reserving memory for it.
  if (count > in->size()) {
    return Status::InvalidArgument("posting list: count exceeds input");
  }
  out->reserve(out->size() + static_cast<size_t>(count));
  return DecodeScalarPostings(in, count, out);
}

Status EncodePostingListGrouped(const std::vector<Posting>& postings,
                                std::string* out) {
  WSIE_RETURN_NOT_OK(ValidatePostingOrder(postings));
  PutVarint(out, postings.size());
  if (postings.empty()) return Status::OK();

  // Group-varint lanes are uint32; a doc gap past that (or a first id past
  // it) routes the whole list to the scalar-varint fallback payload.
  bool fits_u32 = postings.front().doc_id <= UINT32_MAX;
  for (size_t i = 1; fits_u32 && i < postings.size(); ++i) {
    fits_u32 = postings[i].doc_id - postings[i - 1].doc_id <= UINT32_MAX;
  }
  out->push_back(static_cast<char>(fits_u32 ? kGvFlagGrouped : kGvFlagScalar));

  uint64_t prev_doc = 0;
  bool first = true;
  for (const Posting& p : postings) {
    const uint64_t delta = p.doc_id - (first ? 0 : prev_doc);
    if (fits_u32) {
      const uint32_t values[4] = {static_cast<uint32_t>(delta), p.sentence,
                                  p.begin, p.end - p.begin};
      PutGvGroup(out, values);
    } else {
      PutVarint(out, delta);
      PutVarint(out, p.sentence);
      PutVarint(out, p.begin);
      PutVarint(out, p.end - p.begin);
    }
    prev_doc = p.doc_id;
    first = false;
  }
  return Status::OK();
}

Status DecodePostingListGrouped(std::string_view* in,
                                std::vector<Posting>* out) {
  uint64_t count = 0;
  if (!GetVarint(in, &count)) {
    return Status::InvalidArgument("posting list: bad count");
  }
  if (count == 0) return Status::OK();
  if (in->empty()) {
    return Status::InvalidArgument("posting list: missing codec flag");
  }
  const uint8_t flag = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  if (flag != kGvFlagGrouped && flag != kGvFlagScalar) {
    return Status::InvalidArgument("posting list: unknown codec flag");
  }
  // Every posting occupies >= 4 bytes in either payload; a count beyond
  // the remaining bytes is corruption — reject before reserving.
  if (count > in->size()) {
    return Status::InvalidArgument("posting list: count exceeds input");
  }
  out->reserve(out->size() + static_cast<size_t>(count));
  if (flag == kGvFlagScalar) {
    return DecodeScalarPostings(in, count, out);
  }

  uint64_t index = 0;
  uint64_t doc = 0;
#if defined(WSIE_GV_X86)
  if (HostHasSsse3()) {
    WSIE_RETURN_NOT_OK(DecodeGroupsSsse3(in, count, &index, &doc, out));
  }
#elif defined(WSIE_GV_NEON)
  WSIE_RETURN_NOT_OK(DecodeGroupsNeon(in, count, &index, &doc, out));
#endif
  while (index < count) {
    uint32_t values[4];
    if (!GetGvGroup(in, values)) {
      return Status::InvalidArgument("posting list: truncated posting");
    }
    WSIE_RETURN_NOT_OK(AppendDecodedPosting(values, index, &doc, out));
    ++index;
  }
  return Status::OK();
}

}  // namespace wsie::store
