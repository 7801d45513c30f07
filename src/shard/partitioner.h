#ifndef WSIE_SHARD_PARTITIONER_H_
#define WSIE_SHARD_PARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.h"

namespace wsie::shard {

/// Murmur3 finalizer: full-avalanche bit mix. FNV-1a alone diffuses low
/// bits well but high bits poorly for short keys, and ring placement
/// compares full 64-bit positions — without this mix, point positions for
/// "shard-N#V" labels cluster and shard loads skew several-fold.
constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Virtual nodes per shard. More vnodes tighten the balance bound
/// (relative spread ~ 1/sqrt(vnodes)) at the cost of a larger ring; 512
/// points/shard keeps max/min load within ~1.3 on 10k keys. Changing it
/// moves every key, so it is part of the placement contract.
inline constexpr size_t kVnodesPerShard = 512;

/// A consistent-hash ring over shard ids.
///
/// Each shard owns a fixed set of virtual-node points whose positions
/// depend only on (shard id, vnode index) — NOT on the shard count — so
/// growing the ring from N to N+1 shards moves only the keys that fall
/// into the new shard's arcs (expected fraction 1/(N+1)); every other
/// key keeps its owner. Lookups walk clockwise to the first point at or
/// after the key's hash.
class HashRing {
 public:
  explicit HashRing(size_t num_shards);

  /// `hash` should already be well-mixed; ShardForKey applies Mix64.
  int ShardForHash(uint64_t hash) const;
  int ShardForKey(std::string_view key) const {
    return ShardForHash(Mix64(Fnv1a(key, kFnv1aShortBasis)));
  }

  size_t num_shards() const { return num_shards_; }
  size_t num_points() const { return points_.size(); }

 private:
  struct Point {
    uint64_t position;
    int shard;
  };
  std::vector<Point> points_;  ///< sorted by (position, shard)
  size_t num_shards_;
};

}  // namespace wsie::shard

#endif  // WSIE_SHARD_PARTITIONER_H_
