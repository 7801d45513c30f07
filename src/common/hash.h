#ifndef WSIE_COMMON_HASH_H_
#define WSIE_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace wsie {

/// 64-bit FNV-1a parameters.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// The offset basis with its last decimal digit dropped
/// (1469598103934665603 instead of 14695981039346656037). The CRF and
/// embedding feature hashes, the shard ring, the string maps and the serve
/// request digest all start from it; trained weights, shard placement and
/// digests depend on the exact values, so it is kept as a second seed.
inline constexpr uint64_t kFnv1aShortBasis = 1469598103934665603ULL;

/// Folds one byte into an FNV-1a state.
constexpr uint64_t Fnv1aByte(uint64_t hash, uint8_t byte) {
  return (hash ^ byte) * kFnv1aPrime;
}

/// FNV-1a over `bytes`, continuing from `seed`. The state folds bytes left
/// to right, so Fnv1a(a + b, s) == Fnv1a(b, Fnv1a(a, s)) for any split: a
/// feature template such as "p1:w=" + token hashes from a precomputed
/// prefix seed plus the token bytes, without building the string.
constexpr uint64_t Fnv1a(std::string_view bytes,
                         uint64_t seed = kFnv1aOffsetBasis) {
  for (char c : bytes) seed = Fnv1aByte(seed, static_cast<uint8_t>(c));
  return seed;
}

/// FNV-1a over the eight little-endian bytes of `value`, continuing from
/// `seed` (host byte order does not matter).
constexpr uint64_t Fnv1aU64(uint64_t value,
                            uint64_t seed = kFnv1aOffsetBasis) {
  for (int i = 0; i < 8; ++i) {
    seed = Fnv1aByte(seed, static_cast<uint8_t>(value >> (8 * i)));
  }
  return seed;
}

}  // namespace wsie

#endif  // WSIE_COMMON_HASH_H_
