// FlatHashTable: the open-addressing hash table behind the operator's group
// index and supergroup tables and the sketch-side maps.
//
// Design (the "hash-once flat table" of the hot-path work):
//   - One contiguous slot array, linear probing, power-of-two capacity,
//     maximum load factor 3/4. No per-node allocation, no bucket chains.
//   - Every slot stores the 64-bit key hash next to the entry. Probes
//     compare hashes before keys, and rehashes reinsert by stored hash, so
//     a key is hashed exactly once on insertion (with GroupKey the hash is
//     additionally cached inside the key itself and never recomputed).
//     find_hashed / insert_hashed take a hash the caller already has, so a
//     table whose keys are handles to state stored elsewhere (the
//     operator's group index maps hashes to record indices) never hashes
//     a key at all.
//   - Deletion is tombstone-free backward-shift: the probe chain after the
//     erased slot is compacted in place, so lookups never scan dead slots
//     and load factor never degrades under churn.
//   - clear() destroys the entries but keeps the slot array, so a table
//     that is cleared every window (the §6.4 table swap) serves the next
//     window's burst without rehashing.
//
// Iteration order is the slot order, which depends on hash values and
// insertion history. It is deterministic for a fixed operation sequence but
// NOT insertion order; operator results must never depend on it (the
// operator iterates supergroups in creation order for exactly this reason).
//
// erase(iterator) returns an iterator at the same slot position, which then
// holds either the backward-shifted successor or the next occupied slot.
// Erase-while-iterating therefore never skips a live entry, but an entry
// moved across the array-wrap boundary can be visited twice — callers'
// retention predicates must be idempotent (both in-repo users, lossy
// counting's Prune and distinct sampling's RaiseLevel, are).

#ifndef STREAMOP_COMMON_FLAT_HASH_TABLE_H_
#define STREAMOP_COMMON_FLAT_HASH_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace streamop {

/// Default hash for flat tables: integral keys go through a full-avalanche
/// mix (std::hash is the identity for integers in common stdlibs, which is
/// hostile to open addressing); everything else uses std::hash.
template <typename K>
struct FlatHash {
  size_t operator()(const K& k) const {
    if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
      return static_cast<size_t>(Mix64(static_cast<uint64_t>(k)));
    } else {
      return std::hash<K>{}(k);
    }
  }
};

template <typename K, typename V, typename Hash = FlatHash<K>,
          typename Eq = std::equal_to<K>>
class FlatHashTable {
 public:
  using value_type = std::pair<K, V>;

 private:
  struct Slot {
    uint64_t hash = 0;  // 0 == empty; stored hashes are normalized nonzero
    value_type kv{};
  };

  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    using Ptr = std::conditional_t<Const, const value_type*, value_type*>;

   public:
    Iter() = default;
    Iter(SlotPtr slot, SlotPtr end) : slot_(slot), end_(end) { SkipEmpty(); }

    Ref operator*() const { return slot_->kv; }
    Ptr operator->() const { return &slot_->kv; }

    Iter& operator++() {
      ++slot_;
      SkipEmpty();
      return *this;
    }

    bool operator==(const Iter& o) const { return slot_ == o.slot_; }
    bool operator!=(const Iter& o) const { return slot_ != o.slot_; }

    // Conversion iterator -> const_iterator.
    operator Iter<true>() const { return Iter<true>(slot_, end_); }

   private:
    friend class FlatHashTable;
    void SkipEmpty() {
      while (slot_ != end_ && slot_->hash == 0) ++slot_;
    }
    SlotPtr slot_ = nullptr;
    SlotPtr end_ = nullptr;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatHashTable() = default;
  explicit FlatHashTable(size_t expected_entries) { reserve(expected_entries); }

  FlatHashTable(const FlatHashTable&) = default;
  FlatHashTable& operator=(const FlatHashTable&) = default;

  FlatHashTable(FlatHashTable&& o) noexcept
      : slots_(std::move(o.slots_)), size_(o.size_) {
    o.slots_.clear();
    o.size_ = 0;
  }
  FlatHashTable& operator=(FlatHashTable&& o) noexcept {
    slots_ = std::move(o.slots_);
    size_ = o.size_;
    o.slots_.clear();
    o.size_ = 0;
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  iterator begin() { return iterator(SlotsBegin(), SlotsEnd()); }
  iterator end() { return iterator(SlotsEnd(), SlotsEnd()); }
  const_iterator begin() const {
    return const_iterator(SlotsBegin(), SlotsEnd());
  }
  const_iterator end() const { return const_iterator(SlotsEnd(), SlotsEnd()); }

  /// Pre-sizes the slot array so `expected_entries` fit without rehashing.
  /// Never shrinks.
  void reserve(size_t expected_entries) {
    size_t needed = expected_entries + expected_entries / 3 + 1;  // 4/3 n
    if (needed < kMinCapacity) needed = kMinCapacity;
    size_t cap = kMinCapacity;
    while (cap < needed) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

  iterator find(const K& key) {
    size_t i = FindIndex(key);
    return i == kNotFound ? end()
                          : iterator(slots_.data() + i, SlotsEnd());
  }
  const_iterator find(const K& key) const {
    size_t i = FindIndex(key);
    return i == kNotFound ? end()
                          : const_iterator(slots_.data() + i, SlotsEnd());
  }

  size_t count(const K& key) const {
    return FindIndex(key) == kNotFound ? 0 : 1;
  }

  /// Heterogeneous probe: finds the entry whose stored key satisfies
  /// `key_eq` among slots matching `raw_hash` (pre-normalization). Lets
  /// the batched hot path probe with a lane hash and a column-wise key
  /// comparison, without materializing a key object. `raw_hash` MUST equal
  /// hasher_(k) for the key `key_eq` accepts, or the entry will be missed.
  template <typename Pred>
  iterator find_hashed(uint64_t raw_hash, Pred&& key_eq) {
    if (size_ == 0) return end();
    uint64_t h = NormHash(raw_hash);
    size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(h) & mask;
    while (slots_[i].hash != 0) {
      if (slots_[i].hash == h && key_eq(slots_[i].kv.first)) {
        return iterator(slots_.data() + i, SlotsEnd());
      }
      i = (i + 1) & mask;
    }
    return end();
  }

  /// Prefetches the home slot of `raw_hash` (pre-normalization, as passed
  /// to find_hashed). The batched hot path issues this a few lanes ahead of
  /// the probe so the slot's cache miss overlaps per-lane work.
  void prefetch_hashed(uint64_t raw_hash) const {
    if (slots_.empty()) return;
    const uint64_t h = NormHash(raw_hash);
    __builtin_prefetch(
        &slots_[static_cast<size_t>(h) & (slots_.size() - 1)]);
  }

  /// Inserts `key` with a value constructed from `args` unless present.
  template <typename KeyArg, typename... Args>
  std::pair<iterator, bool> try_emplace(KeyArg&& key, Args&&... args) {
    GrowIfNeeded();
    uint64_t h = NormHash(hasher_(key));
    size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(h) & mask;
    while (slots_[i].hash != 0) {
      if (slots_[i].hash == h && eq_(slots_[i].kv.first, key)) {
        return {iterator(slots_.data() + i, SlotsEnd()), false};
      }
      i = (i + 1) & mask;
    }
    slots_[i].hash = h;
    slots_[i].kv.first = K(std::forward<KeyArg>(key));
    slots_[i].kv.second = V(std::forward<Args>(args)...);
    ++size_;
    return {iterator(slots_.data() + i, SlotsEnd()), true};
  }

  /// Inserts `key` under `raw_hash` (pre-normalization, as passed to
  /// find_hashed) without hashing or comparing it: for a caller that has
  /// just missed with find_hashed on the same hash and knows no equal key
  /// is present. `raw_hash` must be the hash find_hashed will be given for
  /// this key.
  template <typename KeyArg, typename... Args>
  iterator insert_hashed(uint64_t raw_hash, KeyArg&& key, Args&&... args) {
    GrowIfNeeded();
    const uint64_t h = NormHash(raw_hash);
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(h) & mask;
    while (slots_[i].hash != 0) i = (i + 1) & mask;
    slots_[i].hash = h;
    slots_[i].kv.first = K(std::forward<KeyArg>(key));
    slots_[i].kv.second = V(std::forward<Args>(args)...);
    ++size_;
    return iterator(slots_.data() + i, SlotsEnd());
  }

  template <typename KeyArg, typename ValArg>
  std::pair<iterator, bool> emplace(KeyArg&& key, ValArg&& value) {
    return try_emplace(std::forward<KeyArg>(key), std::forward<ValArg>(value));
  }

  V& operator[](const K& key) { return try_emplace(key).first->second; }

  /// Erases by key; returns the number of entries removed (0 or 1).
  size_t erase(const K& key) {
    size_t i = FindIndex(key);
    if (i == kNotFound) return 0;
    EraseIndex(i);
    return 1;
  }

  /// Erases the entry at `it`; returns an iterator at the same slot
  /// position (see the header comment for erase-while-iterating semantics).
  iterator erase(iterator it) {
    assert(it.slot_ != nullptr && it.slot_ != SlotsEnd());
    size_t i = static_cast<size_t>(it.slot_ - slots_.data());
    EraseIndex(i);
    return iterator(slots_.data() + i, SlotsEnd());
  }

  /// Destroys all entries; keeps the slot array (capacity) allocated.
  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) {
      if (s.hash != 0) {
        s.hash = 0;
        s.kv = value_type{};
      }
    }
    size_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  Slot* SlotsBegin() { return slots_.data(); }
  Slot* SlotsEnd() { return slots_.data() + slots_.size(); }
  const Slot* SlotsBegin() const { return slots_.data(); }
  const Slot* SlotsEnd() const { return slots_.data() + slots_.size(); }

  /// Hash 0 marks an empty slot, so a real hash of 0 is remapped.
  static uint64_t NormHash(size_t h) {
    uint64_t h64 = static_cast<uint64_t>(h);
    return h64 == 0 ? 0x9e3779b97f4a7c15ULL : h64;
  }

  size_t FindIndex(const K& key) const {
    if (size_ == 0) return kNotFound;
    uint64_t h = NormHash(hasher_(key));
    size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(h) & mask;
    while (slots_[i].hash != 0) {
      if (slots_[i].hash == h && eq_(slots_[i].kv.first, key)) return i;
      i = (i + 1) & mask;
    }
    return kNotFound;
  }

  void GrowIfNeeded() {
    if (slots_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.size() * 2);
    }
  }

  /// Reinserts every entry into a slot array of `new_cap` (a power of two)
  /// using the stored hashes — keys are never rehashed.
  void Rehash(size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(new_cap);
    size_t mask = new_cap - 1;
    for (Slot& s : old) {
      if (s.hash == 0) continue;
      size_t i = static_cast<size_t>(s.hash) & mask;
      while (slots_[i].hash != 0) i = (i + 1) & mask;
      slots_[i].hash = s.hash;
      slots_[i].kv = std::move(s.kv);
    }
  }

  /// Backward-shift deletion (Knuth 6.4, Algorithm R): scan the contiguous
  /// occupied run after the hole; any entry whose probe path covers the
  /// hole is pulled back into it, leaving no tombstone and no broken chain.
  void EraseIndex(size_t i) {
    size_t mask = slots_.size() - 1;
    size_t hole = i;
    size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (slots_[j].hash == 0) break;
      // The entry at j probes home, home+1, ..., j. It may move into the
      // hole only if the hole lies on that path — i.e. its probe distance
      // reaches at least back to the hole. Entries between their home slot
      // and the hole (home cyclically in (hole, j]) must stay put.
      size_t home = static_cast<size_t>(slots_[j].hash) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole].hash = slots_[j].hash;
        slots_[hole].kv = std::move(slots_[j].kv);
        slots_[j].hash = 0;
        hole = j;
      }
    }
    slots_[hole].hash = 0;
    slots_[hole].kv = value_type{};
    --size_;
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  [[no_unique_address]] Hash hasher_{};
  [[no_unique_address]] Eq eq_{};
};

}  // namespace streamop

#endif  // STREAMOP_COMMON_FLAT_HASH_TABLE_H_
