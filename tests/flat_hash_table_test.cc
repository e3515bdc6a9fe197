// FlatHashTable: insert/find/erase round-trips, backward-shift deletion
// correctness under churn, growth across rehashes, the hashed
// find/insert pair behind the operator's group index, and the
// erase-while-iterating pattern LossyCounting::Prune /
// DistinctSampler::RaiseLevel rely on. Every scenario is cross-checked
// against std::unordered_map as the reference model.

#include "common/flat_hash_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "tuple/tuple.h"
#include "tuple/value.h"

namespace streamop {
namespace {

TEST(FlatHashTableTest, EmptyTable) {
  FlatHashTable<uint64_t, int> t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(42), t.end());
  EXPECT_EQ(t.count(42), 0u);
  EXPECT_EQ(t.erase(42), 0u);
  EXPECT_EQ(t.begin(), t.end());
}

TEST(FlatHashTableTest, InsertFindEraseRoundTrip) {
  FlatHashTable<uint64_t, std::string> t;
  auto [it, inserted] = t.try_emplace(1, "one");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "one");
  // Duplicate insert is a no-op that returns the existing entry.
  auto [it2, inserted2] = t.try_emplace(1, "uno");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, "one");
  EXPECT_EQ(t.size(), 1u);

  t[2] = "two";
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(2)->second, "two");

  EXPECT_EQ(t.erase(1), 1u);
  EXPECT_EQ(t.find(1), t.end());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(2)->second, "two");
}

TEST(FlatHashTableTest, OperatorBracketDefaultConstructs) {
  FlatHashTable<uint64_t, uint64_t> t;
  EXPECT_EQ(t[7], 0u);
  ++t[7];
  ++t[7];
  EXPECT_EQ(t[7], 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlatHashTableTest, GrowthAcrossRehashPreservesEntries) {
  FlatHashTable<uint64_t, uint64_t> t;
  const uint64_t kN = 10000;  // forces many doublings from capacity 16
  for (uint64_t i = 0; i < kN; ++i) t.try_emplace(i, i * i);
  EXPECT_EQ(t.size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    auto it = t.find(i);
    ASSERT_NE(it, t.end()) << i;
    EXPECT_EQ(it->second, i * i);
  }
  EXPECT_EQ(t.find(kN), t.end());
}

TEST(FlatHashTableTest, ReservePreventsRehash) {
  FlatHashTable<uint64_t, int> t;
  t.reserve(1000);
  size_t cap = t.capacity();
  EXPECT_GE(cap, 1000u * 4 / 3);
  for (uint64_t i = 0; i < 1000; ++i) t.try_emplace(i, 0);
  EXPECT_EQ(t.capacity(), cap);  // no growth happened
}

TEST(FlatHashTableTest, ClearKeepsCapacity) {
  FlatHashTable<uint64_t, int> t;
  for (uint64_t i = 0; i < 100; ++i) t.try_emplace(i, 1);
  size_t cap = t.capacity();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), cap);
  EXPECT_EQ(t.find(5), t.end());
  // Reusable after clear.
  t.try_emplace(5, 9);
  EXPECT_EQ(t.find(5)->second, 9);
}

// An adversarial hash that maps everything to a handful of home slots,
// producing maximal probe-chain overlap — the regime where backward-shift
// deletion bugs (orphaned chain members) show up immediately.
struct CollidingHash {
  size_t operator()(uint64_t k) const { return k % 3; }
};

TEST(FlatHashTableTest, BackwardShiftKeepsChainsReachable) {
  FlatHashTable<uint64_t, uint64_t, CollidingHash> t;
  for (uint64_t i = 0; i < 64; ++i) t.try_emplace(i, i);
  // Erase from the middle of the chains in several orders.
  for (uint64_t i = 0; i < 64; i += 3) EXPECT_EQ(t.erase(i), 1u);
  for (uint64_t i = 0; i < 64; ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(t.find(i), t.end()) << i;
    } else {
      ASSERT_NE(t.find(i), t.end()) << i;
      EXPECT_EQ(t.find(i)->second, i);
    }
  }
}

TEST(FlatHashTableTest, RandomChurnMatchesUnorderedMap) {
  FlatHashTable<uint64_t, uint64_t> t;
  std::unordered_map<uint64_t, uint64_t> ref;
  std::mt19937_64 rng(12345);
  for (int step = 0; step < 200000; ++step) {
    uint64_t key = rng() % 512;  // small key space => constant churn
    switch (rng() % 3) {
      case 0: {
        uint64_t v = rng();
        bool ti = t.try_emplace(key, v).second;
        bool ri = ref.try_emplace(key, v).second;
        EXPECT_EQ(ti, ri);
        break;
      }
      case 1:
        EXPECT_EQ(t.erase(key), ref.erase(key));
        break;
      default: {
        auto it = t.find(key);
        auto rit = ref.find(key);
        ASSERT_EQ(it == t.end(), rit == ref.end()) << key;
        if (rit != ref.end()) {
          EXPECT_EQ(it->second, rit->second);
        }
        break;
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  // Full sweep at the end: every surviving entry, and nothing else.
  size_t seen = 0;
  for (const auto& [k, v] : t) {
    auto rit = ref.find(k);
    ASSERT_NE(rit, ref.end()) << k;
    EXPECT_EQ(v, rit->second);
    ++seen;
  }
  EXPECT_EQ(seen, ref.size());
}

// A table that cannot hash its keys: the call operator is deleted, so any
// table method that would hash a key fails to compile.
struct NeverHash {
  size_t operator()(uint32_t) const = delete;
};

TEST(FlatHashTableTest, HashedInsertChurnMatchesUnorderedMap) {
  // The operator's group index: keys are handles into storage the caller
  // owns (here `stored`), found with find_hashed and a predicate on the
  // stored key, inserted with insert_hashed after a miss, and erased by
  // iterator. The hash folds 4,096 keys onto 1,024 values, so equal
  // hashes with different keys are common.
  struct NoValue {};
  FlatHashTable<uint32_t, NoValue, NeverHash> t;
  std::vector<uint64_t> stored;         // handle -> key
  std::vector<uint32_t> free_handles;   // recycled handles
  std::unordered_map<uint64_t, uint32_t> ref;  // key -> handle
  auto hash_of = [](uint64_t key) { return Mix64(key % 1024); };
  auto find = [&](uint64_t key) {
    return t.find_hashed(hash_of(key),
                         [&](uint32_t h) { return stored[h] == key; });
  };
  std::mt19937_64 rng(777);
  for (int step = 0; step < 200000; ++step) {
    const uint64_t key = rng() % 4096;
    auto it = find(key);
    auto rit = ref.find(key);
    ASSERT_EQ(it == t.end(), rit == ref.end()) << key;
    if (it != t.end()) {
      ASSERT_EQ(it->first, rit->second) << key;
    }
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        if (it == t.end()) {
          uint32_t handle;
          if (free_handles.empty()) {
            handle = static_cast<uint32_t>(stored.size());
            stored.push_back(key);
          } else {
            handle = free_handles.back();
            free_handles.pop_back();
            stored[handle] = key;
          }
          auto ins = t.insert_hashed(hash_of(key), handle);
          EXPECT_EQ(ins->first, handle);
          ref.emplace(key, handle);
        }
        break;
      case 3:
      case 4:
        if (it != t.end()) {
          free_handles.push_back(it->first);
          t.erase(it);
          ref.erase(rit);
        }
        break;
      case 5:
        if (step % 1000 == 5) t.reserve(t.size() * 4);  // forced rehash
        break;
      default:
        break;  // lookup only
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  // Full sweep at the end: every surviving handle, and nothing else.
  size_t seen = 0;
  for (const auto& [handle, unused] : t) {
    auto rit = ref.find(stored[handle]);
    ASSERT_NE(rit, ref.end()) << handle;
    EXPECT_EQ(rit->second, handle);
    ++seen;
  }
  EXPECT_EQ(seen, ref.size());
  for (const auto& [key, handle] : ref) {
    auto it = find(key);
    ASSERT_NE(it, t.end()) << key;
    EXPECT_EQ(it->first, handle);
  }
}

TEST(FlatHashTableTest, EraseWhileIteratingVisitsEverySurvivor) {
  // The Prune / RaiseLevel pattern: sweep the table, erasing entries
  // that fail a predicate. The predicate is idempotent (depends only on the
  // key), so the flat table's possible double-visit on array wrap is
  // harmless; what must hold is that no entry is skipped.
  FlatHashTable<uint64_t, uint64_t> t;
  for (uint64_t i = 0; i < 1000; ++i) t.try_emplace(i, i);
  for (auto it = t.begin(); it != t.end();) {
    if (it->first % 2 == 0) {
      it = t.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(t.size(), 500u);
  for (uint64_t i = 0; i < 1000; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(t.find(i), t.end()) << i;
    } else {
      ASSERT_NE(t.find(i), t.end()) << i;
    }
  }
}

TEST(FlatHashTableTest, EraseWhileIteratingUnderCollisions) {
  FlatHashTable<uint64_t, uint64_t, CollidingHash> t;
  for (uint64_t i = 0; i < 100; ++i) t.try_emplace(i, i);
  for (auto it = t.begin(); it != t.end();) {
    if (it->first < 50) {
      it = t.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(t.size(), 50u);
  for (uint64_t i = 50; i < 100; ++i) ASSERT_NE(t.find(i), t.end()) << i;
}

TEST(FlatHashTableTest, MoveResetsSource) {
  FlatHashTable<uint64_t, int> a;
  a.try_emplace(1, 10);
  a.try_emplace(2, 20);
  FlatHashTable<uint64_t, int> b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.find(1)->second, 10);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): reset spec
  a.try_emplace(3, 30);     // source reusable (the §6.4 table swap needs it)
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
}

TEST(FlatHashTableTest, GroupKeyKeysUseCachedHash) {
  // The operator's tables: GroupKey keys hashed via GroupKeyHash (the
  // cached hash). Scratch-probe then insert-a-copy must behave like a
  // plain map.
  FlatHashTable<GroupKey, uint64_t, GroupKeyHash> t;
  GroupKey scratch;
  for (uint64_t i = 0; i < 300; ++i) {
    scratch.Clear();
    scratch.Append(Value::UInt(i % 20));
    scratch.Append(Value::String("k" + std::to_string(i % 15)));
    auto it = t.find(scratch);
    if (it == t.end()) {
      t.emplace(scratch, uint64_t{1});
    } else {
      ++it->second;
    }
  }
  EXPECT_EQ(t.size(), 60u);  // lcm(20, 15)
  uint64_t total = 0;
  for (const auto& [k, v] : t) total += v;
  EXPECT_EQ(total, 300u);
}

TEST(FlatHashTableTest, ZeroHashKeyIsStorable) {
  // A key whose hash is 0 must not be confused with the empty-slot marker.
  struct ZeroHash {
    size_t operator()(uint64_t) const { return 0; }
  };
  FlatHashTable<uint64_t, int, ZeroHash> t;
  t.try_emplace(0, 1);
  t.try_emplace(1, 2);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(0)->second, 1);
  EXPECT_EQ(t.find(1)->second, 2);
  EXPECT_EQ(t.erase(0), 1u);
  EXPECT_EQ(t.find(1)->second, 2);
}

}  // namespace
}  // namespace streamop
