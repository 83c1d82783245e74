// Unit tests for the slab arena backing block content bytes (DESIGN.md §11):
// bump allocation, accounting, pins, arena generations (compaction swaps in
// a new SlabArena; the old one lives exactly as long as its last pin), and
// the CopyMeter copy accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/block/arena.h"
#include "src/ds/cuckoo_hash.h"

namespace jiffy {
namespace {

TEST(ArenaTest, StoreReturnsStableAlignedViews) {
  SlabArena arena;
  std::vector<std::string_view> views;
  for (int i = 0; i < 100; ++i) {
    views.push_back(arena.Store("payload-" + std::to_string(i)));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(views[i], "payload-" + std::to_string(i));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(views[i].data()) % 8, 0u) << i;
  }
}

TEST(ArenaTest, AccountingTracksStoredGarbageLive) {
  SlabArena arena;
  arena.Store(std::string(100, 'a'));
  arena.Store(std::string(50, 'b'));
  EXPECT_EQ(arena.stored_bytes(), 150u);
  arena.NoteGarbage(50);
  EXPECT_EQ(arena.garbage_bytes(), 50u);
  EXPECT_EQ(arena.live_bytes(), 100u);
}

// The generation a compaction replaces stays readable exactly as long as a
// pin taken on it: the pin's reference is the only thing keeping it alive.
TEST(ArenaTest, RetiredBytesStayReadableUntilRelease) {
  CuckooHashMap map;
  map.Put("key", "still-here-after-compaction");
  const std::string_view v = map.Get("key").value();
  ArenaPin pin(map.arena());
  const std::weak_ptr<SlabArena> old = map.arena();
  map.CompactArena();
  EXPECT_NE(map.arena(), old.lock());
  EXPECT_FALSE(old.expired());
  EXPECT_EQ(v, "still-here-after-compaction");
  EXPECT_EQ(old.lock()->pins(), 1);
  pin.Release();
  EXPECT_TRUE(old.expired());
  EXPECT_EQ(map.Get("key").value(), "still-here-after-compaction");
}

TEST(ArenaTest, PinBlocksReleaseUntilLastUnpin) {
  auto arena = std::make_shared<SlabArena>();
  const std::string_view v = arena->Store("pinned-bytes");
  const std::weak_ptr<SlabArena> weak = arena;
  ArenaPin pin1(arena);
  ArenaPin pin2(arena);
  EXPECT_EQ(arena->pins(), 2);
  arena.reset();  // The owner swaps in a new generation.
  pin1.Release();
  EXPECT_FALSE(weak.expired());  // Still held by pin2.
  EXPECT_EQ(v, "pinned-bytes");
  pin2.Release();  // The last pin frees the generation.
  EXPECT_TRUE(weak.expired());
}

// With no pin outstanding, the compactor's own reference is the last one:
// the old generation is freed before CompactArena() returns, and the new
// one holds only the live records.
TEST(ArenaTest, UnpinnedCompactionFreesOldGeneration) {
  CuckooHashMap map;
  const std::string value(100, 'x');
  for (int round = 0; round < 20; ++round) {
    ArenaPin pin(map.arena());  // Forces appends, i.e. garbage.
    for (int i = 0; i < 100; ++i) {
      map.Put("key" + std::to_string(i), value);
    }
  }
  const size_t old_footprint = map.arena()->footprint_bytes();
  const std::weak_ptr<SlabArena> old = map.arena();
  map.CompactArena();
  EXPECT_TRUE(old.expired());
  EXPECT_EQ(map.arena()->garbage_bytes(), 0u);
  EXPECT_EQ(map.arena()->footprint_bytes(), SlabArena::kDefaultChunkBytes);
  EXPECT_LT(map.arena()->footprint_bytes(), old_footprint);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(map.Get("key" + std::to_string(i)).value(), value);
  }
}

TEST(ArenaTest, OversizeAllocationGetsDedicatedChunk) {
  SlabArena arena(/*chunk_bytes=*/256);
  const std::string big(4096, 'B');
  const std::string_view v = arena.Store(big);
  EXPECT_EQ(v, big);
}

// A compaction leaves the new generation unpinned, so the next overwrite
// rewrites its record in place. A view pinned on the old generation must not
// see that write: it stays byte-identical.
TEST(ArenaTest, PinnedViewsStayByteIdenticalAcrossInPlaceOverwrites) {
  CuckooHashMap map;
  map.Put("key", std::string(64, 'a'));
  const std::string_view v = map.Get("key").value();
  ArenaPin pin(map.arena());
  map.CompactArena();
  const char* fresh = map.Get("key").value().data();
  for (char c = 'b'; c <= 'z'; ++c) {
    map.Put("key", std::string(64, c));
  }
  EXPECT_EQ(map.Get("key").value().data(), fresh);  // Overwritten in place.
  EXPECT_EQ(map.arena()->garbage_bytes(), 0u);
  EXPECT_EQ(v, std::string(64, 'a'));
}

TEST(ArenaTest, PinKeepsArenaAliveAfterOwnerDrops) {
  auto arena = std::make_shared<SlabArena>();
  const std::string_view v = arena->Store("outlives-the-content");
  ArenaPin pin(arena);
  arena.reset();  // Content teardown: the pin holds the last reference.
  EXPECT_EQ(v, "outlives-the-content");
  pin.Release();
}

TEST(ArenaTest, ArenaPinMoveTransfersOwnership) {
  auto arena = std::make_shared<SlabArena>();
  ArenaPin pin(arena);
  EXPECT_EQ(arena->pins(), 1);
  ArenaPin moved(std::move(pin));
  EXPECT_EQ(arena->pins(), 1);
  EXPECT_FALSE(static_cast<bool>(pin));
  EXPECT_TRUE(static_cast<bool>(moved));
  ArenaPin assigned;
  assigned = std::move(moved);
  EXPECT_EQ(arena->pins(), 1);
  assigned.Release();
  EXPECT_EQ(arena->pins(), 0);
}

TEST(ArenaTest, CopyMeterCountsStoredBytes) {
  SlabArena arena;
  const uint64_t before = CopyMeter::Total();
  arena.Store(std::string(1000, 'c'));
  arena.Store(std::string(24, 'd'));
  EXPECT_EQ(CopyMeter::Total() - before, 1024u);
}

}  // namespace
}  // namespace jiffy
