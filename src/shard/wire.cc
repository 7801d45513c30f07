#include "shard/wire.h"

#include <cstring>

#include "common/varint.h"

namespace wsie::shard {
namespace {

enum Tag : uint8_t {
  kNull = 0,
  kFalse = 1,
  kTrue = 2,
  kInt = 3,
  kDouble = 4,
  kString = 5,
  kArray = 6,
  kObject = 7,
};

// Nesting guard: real records are a handful of levels deep; a decode that
// recurses past this is malformed (or adversarial) input.
constexpr int kMaxDepth = 128;

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

Status Truncated() { return Status::InvalidArgument("wire: truncated input"); }

Status DecodeValueImpl(std::string_view* in, dataflow::Value* out, int depth) {
  if (depth > kMaxDepth) {
    return Status::InvalidArgument("wire: nesting too deep");
  }
  if (in->empty()) return Truncated();
  const uint8_t tag = static_cast<uint8_t>(in->front());
  in->remove_prefix(1);
  switch (tag) {
    case kNull:
      *out = dataflow::Value();
      return Status::OK();
    case kFalse:
      *out = dataflow::Value(false);
      return Status::OK();
    case kTrue:
      *out = dataflow::Value(true);
      return Status::OK();
    case kInt: {
      uint64_t raw = 0;
      if (!GetVarint(in, &raw)) return Truncated();
      *out = dataflow::Value(UnZigZag(raw));
      return Status::OK();
    }
    case kDouble: {
      if (in->size() < 8) return Truncated();
      uint64_t bits = 0;
      for (int i = 7; i >= 0; --i) {
        bits = (bits << 8) | static_cast<unsigned char>((*in)[i]);
      }
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      in->remove_prefix(8);
      *out = dataflow::Value(d);
      return Status::OK();
    }
    case kString: {
      uint64_t len = 0;
      if (!GetVarint(in, &len)) return Truncated();
      if (len > in->size()) return Truncated();
      *out = dataflow::Value(std::string(in->substr(0, len)));
      in->remove_prefix(len);
      return Status::OK();
    }
    case kArray: {
      uint64_t count = 0;
      if (!GetVarint(in, &count)) return Truncated();
      if (count > in->size()) return Truncated();  // >= 1 byte per element
      dataflow::Value::Array array;
      array.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        dataflow::Value element;
        WSIE_RETURN_NOT_OK(DecodeValueImpl(in, &element, depth + 1));
        array.push_back(std::move(element));
      }
      *out = dataflow::Value(std::move(array));
      return Status::OK();
    }
    case kObject: {
      uint64_t count = 0;
      if (!GetVarint(in, &count)) return Truncated();
      if (count > in->size()) return Truncated();
      dataflow::Value::Object object;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t len = 0;
        if (!GetVarint(in, &len)) return Truncated();
        if (len > in->size()) return Truncated();
        std::string key(in->substr(0, len));
        in->remove_prefix(len);
        dataflow::Value value;
        WSIE_RETURN_NOT_OK(DecodeValueImpl(in, &value, depth + 1));
        // The encoder writes each key once; a repeat would silently drop a
        // value and re-encode to different bytes.
        if (!object.emplace(std::move(key), std::move(value)).second) {
          return Status::InvalidArgument("wire: repeated object key");
        }
      }
      *out = dataflow::Value(std::move(object));
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("wire: unknown tag " +
                                     std::to_string(tag));
  }
}

}  // namespace

void EncodeValue(const dataflow::Value& value, std::string* out) {
  if (value.is_null()) {
    out->push_back(static_cast<char>(kNull));
  } else if (value.is_bool()) {
    out->push_back(static_cast<char>(value.AsBool() ? kTrue : kFalse));
  } else if (value.is_int()) {
    out->push_back(static_cast<char>(kInt));
    PutVarint(out, ZigZag(value.AsInt()));
  } else if (value.is_double()) {
    out->push_back(static_cast<char>(kDouble));
    uint64_t bits = 0;
    const double d = value.AsDouble();
    std::memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
    }
  } else if (value.is_string()) {
    out->push_back(static_cast<char>(kString));
    const std::string& s = value.AsString();
    PutVarint(out, s.size());
    out->append(s);
  } else if (value.is_array()) {
    out->push_back(static_cast<char>(kArray));
    const auto& array = value.AsArray();
    PutVarint(out, array.size());
    for (const dataflow::Value& element : array) EncodeValue(element, out);
  } else {
    out->push_back(static_cast<char>(kObject));
    const auto& object = value.AsObject();
    PutVarint(out, object.size());
    for (const auto& [key, field] : object) {
      PutVarint(out, key.size());
      out->append(key);
      EncodeValue(field, out);
    }
  }
}

Status DecodeValue(std::string_view* in, dataflow::Value* out) {
  return DecodeValueImpl(in, out, 0);
}

void EncodeDataset(const dataflow::Dataset& records, std::string* out) {
  PutVarint(out, records.size());
  for (const dataflow::Record& record : records) EncodeValue(record, out);
}

Result<dataflow::Dataset> DecodeDataset(std::string_view bytes) {
  uint64_t count = 0;
  if (!GetVarint(&bytes, &count)) return Truncated();
  if (count > bytes.size()) {  // every record takes >= 1 byte
    return Status::InvalidArgument("wire: record count exceeds payload");
  }
  dataflow::Dataset records;
  records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    dataflow::Record record;
    WSIE_RETURN_NOT_OK(DecodeValue(&bytes, &record));
    records.push_back(std::move(record));
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("wire: trailing bytes after dataset");
  }
  return records;
}

}  // namespace wsie::shard
