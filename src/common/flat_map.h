#ifndef WSIE_COMMON_FLAT_MAP_H_
#define WSIE_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace wsie {

/// An open-addressing string -> count map (linear probing, power-of-two
/// capacity, cached hashes, arena-backed keys). Replacement for the
/// `std::map<std::string, uint64_t>` distinct-name tables of the Sect. 4.2
/// memory war story: no per-entry node allocation and no per-key
/// std::string object — every key is an (offset, length) slice of one
/// append-only arena, so a 24-byte slot plus the exact name bytes is the
/// whole cost. Insertion and lookup only (the analytics tables never
/// erase); not thread-safe.
class StringCountMap {
 public:
  StringCountMap() = default;

  /// Adds `delta` to the count for `key`, inserting it at 0 first.
  void Add(std::string_view key, uint64_t delta = 1) {
    if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7) {
      Grow();
    }
    Slot& slot = *FindSlot(slots_, Hash(key), key);
    if (!slot.used()) {
      slot.hash = Hash(key);
      slot.offset = static_cast<uint32_t>(arena_.size());
      slot.length = static_cast<uint32_t>(key.size());
      arena_.append(key.data(), key.size());
      ++size_;
    }
    slot.count += delta;
  }

  /// Count for `key`; 0 when absent.
  uint64_t Count(std::string_view key) const {
    if (slots_.empty()) return 0;
    const Slot& slot = *FindSlot(slots_, Hash(key), key);
    return slot.used() ? slot.count : 0;
  }

  bool Contains(std::string_view key) const {
    if (slots_.empty()) return false;
    return FindSlot(slots_, Hash(key), key)->used();
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visits every (key, count) pair in unspecified (hash) order. The
  /// string_view aliases the arena — valid until the next Add().
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used()) fn(KeyOf(slot), slot.count);
    }
  }

  /// All entries sorted by key — for deterministic iteration (exports,
  /// distributions) where hash order would leak into output.
  std::vector<std::pair<std::string, uint64_t>> SortedItems() const;

  /// Resident bytes: the slot array plus the key arena. Exact up to vector
  /// growth slack — there are no hidden per-entry heap blocks to estimate.
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) + arena_.capacity();
  }

 private:
  struct Slot {
    uint64_t hash = 0;  ///< 0 = empty (Hash() never returns 0)
    uint64_t count = 0;
    uint32_t offset = 0;  ///< key slice of the arena
    uint32_t length = 0;
    bool used() const { return hash != 0; }
  };

  std::string_view KeyOf(const Slot& slot) const {
    return std::string_view(arena_.data() + slot.offset, slot.length);
  }

  static uint64_t Hash(std::string_view key) {
    // FNV-1a, with 0 remapped so it can double as the empty-slot marker.
    uint64_t h = Fnv1a(key, kFnv1aShortBasis);
    return h == 0 ? 1 : h;
  }

  /// First slot matching (hash, key), or the empty slot to insert into.
  const Slot* FindSlot(const std::vector<Slot>& slots, uint64_t hash,
                       std::string_view key) const {
    size_t mask = slots.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (slots[i].used() &&
           (slots[i].hash != hash || KeyOf(slots[i]) != key)) {
      i = (i + 1) & mask;
    }
    return &slots[i];
  }
  Slot* FindSlot(std::vector<Slot>& slots, uint64_t hash,
                 std::string_view key) {
    return const_cast<Slot*>(
        static_cast<const StringCountMap*>(this)->FindSlot(slots, hash, key));
  }

  void Grow() {
    std::vector<Slot> next(slots_.empty() ? 16 : slots_.size() * 2);
    size_t mask = next.size() - 1;
    for (const Slot& slot : slots_) {
      if (!slot.used()) continue;
      // Keys stay in the arena; only the 24-byte slots rehash, and the
      // cached hash makes that a pure integer probe.
      size_t i = static_cast<size_t>(slot.hash) & mask;
      while (next[i].used()) i = (i + 1) & mask;
      next[i] = slot;
    }
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;
  std::string arena_;  ///< concatenated key bytes
  size_t size_ = 0;
};

/// An open-addressing string -> dense-id interner (linear probing,
/// power-of-two capacity, cached hashes, arena-backed keys) — the same slot
/// layout discipline as StringCountMap, but the payload is a `uint32_t` id
/// assigned in first-insertion order. This is the substrate of the tagger
/// `Lexicon`: surface forms are interned once at model-load time, and the
/// hot decode loops thereafter work in dense-id space (flat array indexing,
/// zero string hashing). Lookup on a built interner is const and touches no
/// mutable state, so a finalized instance is safe to share across threads.
class StringInterner {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  StringInterner() = default;

  /// Id for `key`, inserting it with the next dense id when absent.
  uint32_t Intern(std::string_view key) {
    if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7) {
      Grow();
    }
    Slot& slot = *FindSlot(slots_, Hash(key), key);
    if (!slot.used()) {
      slot.hash = Hash(key);
      slot.id = static_cast<uint32_t>(size_);
      slot.offset = static_cast<uint32_t>(arena_.size());
      slot.length = static_cast<uint32_t>(key.size());
      arena_.append(key.data(), key.size());
      ++size_;
    }
    return slot.id;
  }

  /// Id for `key`, or kNotFound when it was never interned. Read-only.
  uint32_t Find(std::string_view key) const {
    if (slots_.empty()) return kNotFound;
    const Slot& slot = *FindSlot(slots_, Hash(key), key);
    return slot.used() ? slot.id : kNotFound;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Resident bytes: the slot array plus the key arena.
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) + arena_.capacity();
  }

 private:
  struct Slot {
    uint64_t hash = 0;  ///< 0 = empty (Hash() never returns 0)
    uint32_t id = 0;
    uint32_t offset = 0;  ///< key slice of the arena
    uint32_t length = 0;
    bool used() const { return hash != 0; }
  };

  std::string_view KeyOf(const Slot& slot) const {
    return std::string_view(arena_.data() + slot.offset, slot.length);
  }

  static uint64_t Hash(std::string_view key) {
    uint64_t h = Fnv1a(key, kFnv1aShortBasis);
    return h == 0 ? 1 : h;
  }

  const Slot* FindSlot(const std::vector<Slot>& slots, uint64_t hash,
                       std::string_view key) const {
    size_t mask = slots.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (slots[i].used() &&
           (slots[i].hash != hash || KeyOf(slots[i]) != key)) {
      i = (i + 1) & mask;
    }
    return &slots[i];
  }
  Slot* FindSlot(std::vector<Slot>& slots, uint64_t hash,
                 std::string_view key) {
    return const_cast<Slot*>(
        static_cast<const StringInterner*>(this)->FindSlot(slots, hash, key));
  }

  void Grow() {
    std::vector<Slot> next(slots_.empty() ? 16 : slots_.size() * 2);
    size_t mask = next.size() - 1;
    for (const Slot& slot : slots_) {
      if (!slot.used()) continue;
      size_t i = static_cast<size_t>(slot.hash) & mask;
      while (next[i].used()) i = (i + 1) & mask;
      next[i] = slot;
    }
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;
  std::string arena_;  ///< concatenated key bytes
  size_t size_ = 0;
};

inline std::vector<std::pair<std::string, uint64_t>>
StringCountMap::SortedItems() const {
  std::vector<std::pair<std::string, uint64_t>> items;
  items.reserve(size_);
  ForEach([&](std::string_view key, uint64_t count) {
    items.emplace_back(std::string(key), count);
  });
  std::sort(items.begin(), items.end());
  return items;
}

}  // namespace wsie

#endif  // WSIE_COMMON_FLAT_MAP_H_
