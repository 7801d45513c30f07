#ifndef WSIE_SHARD_WIRE_H_
#define WSIE_SHARD_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/value.h"

namespace wsie::shard {

/// Binary codec for `dataflow::Value` used by the multi-process transport.
///
/// JSON would not round-trip doubles exactly; this codec bit-casts them to
/// 8 little-endian bytes, so a record survives the wire byte-identical —
/// the split-correctness proofs compare serialized sink output across
/// transports, which only works with an exact codec (same discipline as
/// the fault::Checkpoint wire format).
///
/// Layout: one tag byte, then
///   null               -> (nothing)
///   bool               -> folded into the tag (kFalse / kTrue)
///   int64              -> zigzag LEB128 varint
///   double             -> 8 fixed little-endian bytes (bit pattern)
///   string             -> varint length + raw bytes
///   array              -> varint count + elements
///   object             -> varint count + (string key, value) pairs,
///                         each key once

void EncodeValue(const dataflow::Value& value, std::string* out);
/// Decodes one value from the front of `*in`, advancing it past the
/// consumed bytes. Rejects truncated or malformed input with a Status.
Status DecodeValue(std::string_view* in, dataflow::Value* out);

void EncodeDataset(const dataflow::Dataset& records, std::string* out);
Result<dataflow::Dataset> DecodeDataset(std::string_view bytes);

}  // namespace wsie::shard

#endif  // WSIE_SHARD_WIRE_H_
