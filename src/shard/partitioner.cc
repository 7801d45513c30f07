#include "shard/partitioner.h"

#include <algorithm>
#include <string>

namespace wsie::shard {

HashRing::HashRing(size_t num_shards)
    : num_shards_(num_shards == 0 ? 1 : num_shards) {
  points_.reserve(num_shards_ * kVnodesPerShard);
  std::string label;
  for (size_t shard = 0; shard < num_shards_; ++shard) {
    for (size_t vnode = 0; vnode < kVnodesPerShard; ++vnode) {
      // The point position depends only on (shard, vnode): adding shards
      // appends new points without moving existing ones.
      label.assign("shard-");
      label += std::to_string(shard);
      label += '#';
      label += std::to_string(vnode);
      points_.push_back(Point{Mix64(Fnv1a(label, kFnv1aShortBasis)),
                              static_cast<int>(shard)});
    }
  }
  std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
    if (a.position != b.position) return a.position < b.position;
    return a.shard < b.shard;  // deterministic tie-break on collisions
  });
}

int HashRing::ShardForHash(uint64_t hash) const {
  auto it = std::lower_bound(
      points_.begin(), points_.end(), hash,
      [](const Point& p, uint64_t h) { return p.position < h; });
  if (it == points_.end()) it = points_.begin();  // wrap around
  return it->shard;
}

}  // namespace wsie::shard
