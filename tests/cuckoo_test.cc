// Unit + property tests for the cuckoo hash map backing KV shards (§5.3).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/ds/cuckoo_hash.h"

namespace jiffy {
namespace {

TEST(CuckooTest, PutGetErase) {
  CuckooHashMap map;
  EXPECT_FALSE(map.Put("k1", "v1").has_value());
  EXPECT_EQ(map.Get("k1").value(), "v1");
  EXPECT_TRUE(map.Contains("k1"));
  EXPECT_EQ(map.size(), 1u);
  auto erased = map.Erase("k1");
  ASSERT_TRUE(erased.has_value());
  EXPECT_EQ(*erased, 4u);  // "k1" + "v1".
  EXPECT_FALSE(map.Contains("k1"));
  EXPECT_EQ(map.size(), 0u);
}

TEST(CuckooTest, PutReplaceReturnsOldSize) {
  CuckooHashMap map;
  map.Put("key", "short");
  auto old = map.Put("key", "a-much-longer-value");
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, 5u);
  EXPECT_EQ(map.Get("key").value(), "a-much-longer-value");
  EXPECT_EQ(map.size(), 1u);
}

TEST(CuckooTest, GetMissing) {
  CuckooHashMap map;
  EXPECT_FALSE(map.Get("missing").has_value());
  EXPECT_FALSE(map.Erase("missing").has_value());
}

TEST(CuckooTest, GrowsPastInitialCapacity) {
  CuckooHashMap map(2);  // 2 buckets × 4 slots = 8 slots before pressure.
  for (int i = 0; i < 1000; ++i) {
    map.Put("key" + std::to_string(i), "value" + std::to_string(i));
  }
  EXPECT_EQ(map.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    auto v = map.Get("key" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
}

TEST(CuckooTest, ForEachVisitsAll) {
  CuckooHashMap map;
  for (int i = 0; i < 50; ++i) {
    map.Put("k" + std::to_string(i), "v");
  }
  size_t visited = 0;
  map.ForEach([&](std::string_view k, std::string_view v) {
    EXPECT_FALSE(k.empty());
    EXPECT_EQ(v, "v");
    visited++;
  });
  EXPECT_EQ(visited, 50u);
}

TEST(CuckooTest, ExtractIfRemovesMatching) {
  CuckooHashMap map;
  for (int i = 0; i < 100; ++i) {
    map.Put("k" + std::to_string(i), std::to_string(i));
  }
  std::map<std::string, std::string> extracted;
  const size_t n = map.ExtractIf(
      [](const HashedKey& k) { return k.key.back() == '7'; },
      [&](std::string_view k, std::string_view v) {
        extracted.emplace(std::string(k), std::string(v));
      });
  EXPECT_EQ(n, 10u);  // k7, k17, ..., k97.
  EXPECT_EQ(map.size(), 90u);
  EXPECT_TRUE(extracted.count("k7") == 1);
  EXPECT_FALSE(map.Contains("k7"));
  EXPECT_TRUE(map.Contains("k8"));
}

// Growth never re-hashes a key and never recurses. Injected hashes make 12
// keys share both candidate buckets — 8 slots — at every table size below
// 2^kFitBits buckets, so every doubling up to there fails its kick walk
// again. At 2^kFitBits the next bit of each index spreads them, three per
// bucket pair, over four buckets, where they fit. Any path that re-hashed
// the key bytes would move these keys to their natural buckets and lose
// them.
TEST(CuckooTest, GrowthKeepsInjectedHashesUntilCollidingKeysFit) {
  constexpr int kFitBits = 6;
  constexpr uint64_t kShared = (uint64_t{1} << (kFitBits - 1)) - 1;
  constexpr uint64_t kTopBit = uint64_t{1} << (kFitBits - 1);
  // Seeded search: the low kFitBits-1 bits of hash and of Mix64(hash) are
  // fixed (both bucket indexes), three hashes per combination of the next
  // bit of each.
  Rng rng(7);
  std::vector<uint64_t> hashes;
  int per_pair[4] = {0, 0, 0, 0};
  while (hashes.size() < 12) {
    const uint64_t h = (rng.Next() & ~kShared) | 5;
    if ((Mix64(h) & kShared) != 19) {
      continue;
    }
    const int pair = ((h & kTopBit) ? 2 : 0) + ((Mix64(h) & kTopBit) ? 1 : 0);
    if (per_pair[pair] < 3) {
      per_pair[pair]++;
      hashes.push_back(h);
    }
  }
  CuckooHashMap map(2);
  for (int i = 0; i < 32; ++i) {
    map.Put("ordinary" + std::to_string(i), "o" + std::to_string(i));
    if (i < 12) {
      map.Put(HashedKey("colliding" + std::to_string(i), hashes[i]),
              "c" + std::to_string(i));
    }
  }
  map.CompactArena();
  EXPECT_EQ(map.size(), 44u);
  EXPECT_EQ(map.bucket_count(), size_t{1} << kFitBits);
  for (int i = 0; i < 12; ++i) {
    const std::string key = "colliding" + std::to_string(i);
    auto v = map.Get(HashedKey(key, hashes[i]));
    ASSERT_TRUE(v.has_value()) << key;
    EXPECT_EQ(*v, "c" + std::to_string(i));
  }
  for (int i = 0; i < 32; ++i) {
    auto v = map.Get("ordinary" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, "o" + std::to_string(i));
  }
  // Each predicate sees the hash its key was stored with.
  std::map<std::string, uint64_t> seen;
  const size_t extracted = map.ExtractIf(
      [&](const HashedKey& k) {
        seen[std::string(k.key)] = k.hash;
        return k.key.starts_with("colliding");
      },
      [](std::string_view, std::string_view) {});
  EXPECT_EQ(extracted, 12u);
  EXPECT_EQ(map.size(), 32u);
  ASSERT_EQ(seen.size(), 44u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(seen["colliding" + std::to_string(i)], hashes[i]) << i;
  }
  for (int i = 0; i < 32; ++i) {
    const std::string key = "ordinary" + std::to_string(i);
    EXPECT_EQ(seen[key], HashKey1(key)) << key;
  }
}

// Property: the map agrees with std::map under a random op sequence.
class CuckooPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CuckooPropertyTest, AgreesWithReferenceModel) {
  Rng rng(GetParam());
  CuckooHashMap map(4);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 20000; ++i) {
    const std::string key = "key" + std::to_string(rng.NextBelow(500));
    const int op = static_cast<int>(rng.NextBelow(3));
    if (op == 0) {
      const std::string value = "v" + std::to_string(rng.Next() % 100000);
      map.Put(key, value);
      model[key] = value;
    } else if (op == 1) {
      auto got = map.Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(got.has_value()) << key;
      } else {
        ASSERT_TRUE(got.has_value()) << key;
        EXPECT_EQ(*got, it->second);
      }
    } else {
      const bool erased = map.Erase(key).has_value();
      EXPECT_EQ(erased, model.erase(key) > 0) << key;
    }
  }
  EXPECT_EQ(map.size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CuckooPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(CuckooTest, ViewsStableAcrossRehashAndKicks) {
  CuckooHashMap map(2);
  map.Put("pinned-key", "pinned-value");
  const std::string_view v = map.Get("pinned-key").value();
  const char* data = v.data();
  // Force many rehashes and kick chains; the record bytes live in the arena
  // and never move, so the view stays byte-identical.
  for (int i = 0; i < 5000; ++i) {
    map.Put("filler" + std::to_string(i), "x");
  }
  EXPECT_EQ(v, "pinned-value");
  EXPECT_EQ(v.data(), data);
}

TEST(CuckooTest, OverwriteInPlaceWhenUnpinned) {
  CuckooHashMap map;
  const std::string value(1024, 'v');
  // With no pins outstanding, same-size overwrites rewrite the record's
  // bytes in place: no garbage, no footprint growth, stable data pointer.
  map.Put("key", value);
  const char* data = map.Get("key").value().data();
  for (int round = 0; round < 200; ++round) {
    map.Put("key", std::string(1024, 'a' + (round % 26)));
  }
  EXPECT_EQ(map.GarbageRatio(), 0.0);
  EXPECT_EQ(map.Get("key").value(), std::string(1024, 'a' + (199 % 26)));
  EXPECT_EQ(map.Get("key").value().data(), data);
  EXPECT_LE(map.arena()->stored_bytes(), 2048u);
}

TEST(CuckooTest, OverwritesAccrueGarbageAndCompactionReclaims) {
  CuckooHashMap map;
  const std::string value(1024, 'v');
  // A pinned reader forces the append path: its views must stay immutable,
  // so every overwrite leaves the old bytes behind as garbage.
  ArenaPin pin(map.arena());
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 8; ++i) {
      map.Put("key" + std::to_string(i), value);
    }
  }
  // 199 of 200 rounds are dead bytes.
  EXPECT_GT(map.GarbageRatio(), 0.9);
  pin.Release();
  map.CompactArena();
  // Compaction swapped in a new generation: check that one, not the old.
  EXPECT_EQ(map.GarbageRatio(), 0.0);
  EXPECT_EQ(map.arena()->live_bytes(), 8u * (4u + 1024u));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(map.Get("key" + std::to_string(i)).value(), value);
  }
}

TEST(CuckooTest, LoadFactorReasonableAfterHeavyInsert) {
  CuckooHashMap map(2);
  for (int i = 0; i < 5000; ++i) {
    map.Put(std::to_string(i), "x");
  }
  // Cuckoo with 4-way buckets sustains high load; growth should not leave
  // the table nearly empty either.
  EXPECT_GT(map.LoadFactor(), 0.15);
  EXPECT_LE(map.LoadFactor(), 1.0);
}

}  // namespace
}  // namespace jiffy
