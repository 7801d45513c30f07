#ifndef WSIE_STORE_POSTING_CODEC_H_
#define WSIE_STORE_POSTING_CODEC_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace wsie::store {

/// One entity occurrence: which document, which sentence of it, and the
/// exact character span. Type/method/corpus are not part of the posting —
/// lists are grouped by (term, corpus, type, method) at the segment level,
/// so per-posting bytes stay small.
struct Posting {
  uint64_t doc_id = 0;
  uint32_t sentence = 0;  ///< index into the document's sentence array
  uint32_t begin = 0;     ///< character span in the document text
  uint32_t end = 0;

  friend auto operator<=>(const Posting&, const Posting&) = default;
};

/// Appends the delta/varint encoding of `postings` to `*out`. The list
/// must be sorted (operator<=> order): doc ids are gap-encoded against the
/// previous posting, spans as (begin, length). Returns InvalidArgument on
/// unsorted input or a span with end < begin.
Status EncodePostingList(const std::vector<Posting>& postings,
                         std::string* out);

/// Decodes one posting list from `*in` (consuming it), appending to
/// `*out`. Rejects truncated input, doc-id accumulator overflow, and spans
/// overflowing uint32 — corrupt bytes yield a Status error, never UB.
Status DecodePostingList(std::string_view* in, std::vector<Posting>* out);

/// Group-varint posting codec (segment format v2). Each posting flattens
/// to four little-endian values (doc gap, sentence, begin, length) packed
/// behind one control byte whose 2-bit fields give each value's byte
/// length (1-4) — so the whole posting decodes with a single table-driven
/// shuffle instead of four byte-at-a-time varint loops. Layout:
///   varint count | flag byte | postings
/// flag 0x01 = group-varint lanes; 0x00 = scalar delta/varint fallback,
/// chosen automatically when a doc gap (or the first doc id) exceeds
/// uint32. Same input validation and sortedness contract as the scalar
/// codec; the two codecs decode to identical Posting vectors (the scalar
/// codec stays as the golden reference, property-tested against this one).
Status EncodePostingListGrouped(const std::vector<Posting>& postings,
                                std::string* out);
/// Consuming decode; truncated or structurally corrupt bytes yield a
/// Status error, never UB. Uses the SSSE3 (x86) or NEON (aarch64) shuffle
/// kernel when the host supports it, with a scalar fallback that is
/// bit-compatible.
Status DecodePostingListGrouped(std::string_view* in,
                                std::vector<Posting>* out);

/// True when the SIMD group-varint decode kernel is in use on this host.
bool GroupVarintSimdActive();

}  // namespace wsie::store

#endif  // WSIE_STORE_POSTING_CODEC_H_
