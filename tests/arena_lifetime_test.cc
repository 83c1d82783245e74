// Arena lifetime tests (DESIGN.md §11): views handed out by block contents
// must survive compaction and chunked migration for as long as a pin is
// held, and a generation that compaction replaced must be freed once the
// last pin on it drops. A dangling view into a freed generation is a heap
// use-after-free, which the ASan CI job reports.
//
// Suite name contains "Concurrency" so the TSan CI job picks it up.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/block/arena.h"
#include "src/client/jiffy_client.h"
#include "src/client/kv_client.h"
#include "src/common/random.h"
#include "src/ds/kv_content.h"

namespace jiffy {
namespace {

// Pinned views must survive the arena compactions that overwrite churn
// triggers, byte-identical to the moment they were read: stored bytes are
// never mutated under a pin, and the pin keeps its generation alive after
// compaction swaps in the next one.
TEST(ArenaLifetimeConcurrencyTest, PinnedViewsSurviveCompaction) {
  KvShard shard(1 << 20, 0, 1024, 1024);
  const std::string big(4096, 'v');
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(shard.Put("key" + std::to_string(i), big + "r0").ok());
  }
  // Read one value and pin the arena, as a client response would under the
  // block mutex.
  Result<std::string_view> v = shard.Get("key0");
  ASSERT_TRUE(v.ok());
  ArenaPin pin(shard.arena());
  const std::weak_ptr<SlabArena> pinned_generation = shard.arena();
  // Overwrite churn: >64 KiB stored and >50% garbage forces compactions
  // inside Put (KvShard::MaybeCompact).
  for (int round = 1; round <= 8; ++round) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(
          shard.Put("key" + std::to_string(i), big + "r" + std::to_string(round))
              .ok());
    }
  }
  // Compaction swapped in a new generation; the pin holds the old one.
  EXPECT_NE(shard.arena(), pinned_generation.lock());
  EXPECT_FALSE(pinned_generation.expired());
  EXPECT_EQ(*v, big + "r0");
  pin.Release();  // The last pin frees the old generation.
  EXPECT_TRUE(pinned_generation.expired());
  // Live data is unaffected.
  Result<std::string_view> fresh = shard.Get("key0");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, big + "r8");
}

// A chunked migration's FinishMigration drops the moved range and compacts.
// With no pins outstanding the old generation is freed on the spot, and the
// new one holds little more than the surviving pairs.
TEST(ArenaLifetimeConcurrencyTest, MigrationFreesOldGenerationWithoutPins) {
  KvShard shard(1 << 20, 0, 1024, 1024);
  const std::string value(1024, 'm');
  std::vector<std::string> upper_keys;
  for (int i = 0; i < 400; ++i) {
    const std::string key = "mig" + std::to_string(i);
    ASSERT_TRUE(shard.Put(key, value).ok());
    if (KvSlotOf(key, 1024) >= 384) {
      upper_keys.push_back(key);
    }
  }
  ASSERT_GT(upper_keys.size(), 50u);
  // Chunked move of the upper ~60% of the slot space, as the background
  // repartitioner drives it: dropping it leaves the arena mostly garbage, so
  // FinishMigration compacts.
  ASSERT_TRUE(shard.BeginMigration(384).ok());
  size_t cursor = 0;
  std::vector<std::pair<std::string, std::string>> moved;
  while (!shard.SplitOffChunk(&cursor, 4096, &moved)) {
  }
  EXPECT_GE(moved.size(), upper_keys.size());
  const std::weak_ptr<SlabArena> old_generation = shard.arena();
  shard.FinishMigration();
  EXPECT_TRUE(old_generation.expired());
  size_t surviving = 0;
  shard.ForEach([&](std::string_view k, std::string_view v) {
    surviving += k.size() + v.size();
  });
  EXPECT_EQ(shard.arena()->live_bytes(), surviving);
  // At most one partly filled chunk beyond the surviving pairs.
  EXPECT_GE(shard.arena()->footprint_bytes(), surviving);
  EXPECT_LE(shard.arena()->footprint_bytes(),
            surviving + SlabArena::kDefaultChunkBytes);
  for (const std::string& key : upper_keys) {
    EXPECT_FALSE(shard.Get(key).ok()) << key;
  }
}

// A reader that drops its last pin while a compaction is still copying
// must not disturb the copy: no key may lose or change its value. A writer
// overwrites under a mutex standing in for Block::mu(); a reader takes pins
// under that mutex and drops each outside it. The writer overwrites only
// while the reader pins the current arena generation, so every overwrite
// appends and the shard compacts every ~2,000 steps however the threads
// are scheduled; the ~400 KiB live set spans several 64 KiB chunks, so
// each copy allocates mid-way. The reader drops its pin once the Put in
// progress has copied kMidCopyBytes (CopyMeter tallies arena copy-ins):
// one overwrite copies a ~200-byte record, so only a compaction gets that
// far, and the Put still running after the drop shows the drop landed
// mid-copy. Trials go on past kMinTrials until one has (at most
// kMaxTrials): on a loaded host the reader can miss every early copy. The
// writer checks every key's exact value every few hundred steps. Each
// trial starts from a fresh shard, whose first compaction has no memory
// freed by an earlier one.
TEST(ArenaLifetimeConcurrencyTest, CompactionSurvivesPinsDroppedMidCopy) {
  constexpr int kKeys = 2048;
  constexpr int kMinTrials = 10;
  constexpr int kMaxTrials = 400;
  constexpr int kStepsPerTrial = 3 * kKeys;
  constexpr int kCheckEvery = 256;
  constexpr uint64_t kMidCopyBytes = 16 * 1024;
  constexpr uint64_t kSpinsPerYield = 256;
  std::mutex block_mu;
  std::unique_ptr<KvShard> shard;  // Guarded by block_mu.
  const auto key_of = [](int k) { return "key" + std::to_string(k); };
  const auto value_of = [](int k, int version) {
    std::string v = std::to_string(k) + ":" + std::to_string(version) + ":";
    v.resize(200, static_cast<char>('a' + (k + version) % 26));
    return v;
  };
  std::atomic<bool> stop{false};
  // Bumped under block_mu whenever shard->arena() changes; 0: no shard yet.
  std::atomic<uint64_t> generation{0};
  std::atomic<uint64_t> pinned{0};    // Generation the reader pins, or 0.
  std::atomic<uint64_t> in_put{0};    // Id of the Put in progress, or 0.
  std::atomic<uint64_t> put_base{0};  // CopyMeter::Total() as it began.
  std::atomic<int> dropped_mid_copy{0};
  std::thread reader([&] {
    while (!stop.load()) {
      ArenaPin pin;
      uint64_t gen = 0;
      {
        // Never sleeps on the mutex: a thread woken on unlock may be put
        // on its waker's CPU, and this one must run while the writer
        // copies.
        std::unique_lock<std::mutex> lock(block_mu, std::defer_lock);
        if (generation.load() == 0 || !lock.try_lock()) {
          std::this_thread::yield();
          continue;
        }
        pin = ArenaPin(shard->arena());
        gen = generation.load();
      }
      pinned.store(gen);
      // Hold the pin, as a response being framed would, until a Put is
      // kMidCopyBytes into a copy, or until the generation changes: the
      // next trial's shard, or a compaction this thread did not see. Spin
      // between yields, so as to stay on a CPU through a copy on a loaded
      // host, yet let a writer that shares this CPU run.
      uint64_t put = 0;
      for (uint64_t spin = 1; !stop.load() && generation.load() == gen;
           ++spin) {
        const uint64_t seen = in_put.load();
        const uint64_t base = put_base.load();
        if (seen != 0 && CopyMeter::Total() - base >= kMidCopyBytes &&
            in_put.load() == seen) {
          put = seen;
          break;
        }
        if (spin % kSpinsPerYield == 0) {
          std::this_thread::yield();
        }
      }
      // Drop it outside the mutex.
      pinned.store(0);
      pin.Release();
      if (put != 0 && in_put.load() == put) {
        dropped_mid_copy.fetch_add(1);
      }
    }
  });
  int compactions = 0;
  int wrong = 0;
  uint64_t puts = 0;
  for (int trial = 0;
       wrong == 0 && trial < kMaxTrials &&
       (trial < kMinTrials || dropped_mid_copy.load() == 0);
       ++trial) {
    auto fresh = std::make_unique<KvShard>(size_t{1} << 30, 0, 1024, 1024);
    for (int k = 0; k < kKeys; ++k) {
      EXPECT_TRUE(fresh->Put(key_of(k), value_of(k, 0)).ok());
    }
    std::vector<int> version(kKeys, 0);
    {
      std::lock_guard<std::mutex> lock(block_mu);
      shard.swap(fresh);
      generation.fetch_add(1);
    }
    for (int step = 1; step <= kStepsPerTrial && wrong == 0; ++step) {
      const int k = step % kKeys;
      const std::string key = key_of(k);
      const std::string value = value_of(k, ++version[k]);
      while (pinned.load() != generation.load()) {
        std::this_thread::yield();
      }
      {
        std::lock_guard<std::mutex> lock(block_mu);
        const size_t stored = shard->arena()->stored_bytes();
        put_base.store(CopyMeter::Total());
        in_put.store(++puts);
        EXPECT_TRUE(shard->Put(key, value).ok());
        in_put.store(0);
        // Same-size overwrites never shrink the stored bytes; a
        // compaction drops the garbage.
        if (shard->arena()->stored_bytes() < stored) {
          ++compactions;
          generation.fetch_add(1);
        }
      }
      if (step % kCheckEvery == 0) {
        std::lock_guard<std::mutex> lock(block_mu);
        for (int j = 0; j < kKeys; ++j) {
          Result<std::string_view> v = shard->Get(key_of(j));
          if (!v.ok() || *v != value_of(j, version[j])) {
            ++wrong;
          }
        }
      }
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(wrong, 0);
  EXPECT_GT(compactions, 0);
  EXPECT_GT(dropped_mid_copy.load(), 0) << compactions << " compactions";
}

// End-to-end: readers hold MultiGetPinned responses (zero-copy views into
// block arenas) while splits, merges, and compactions run underneath. The
// pins must keep every referenced generation alive until the reader is done
// — under ASan a violated pin is a heap-use-after-free, under TSan an
// unlocked free races.
TEST(ArenaLifetimeConcurrencyTest, PinnedReadsSurviveSplitMergeChurn) {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 256;
  opts.config.block_size_bytes = 4096;
  opts.config.repartition_chunk_bytes = 512;
  opts.config.lease_duration = 3600 * kSecond;
  auto cluster = std::make_unique<JiffyCluster>(opts);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  constexpr int kStable = 16;
  std::vector<std::string> stable_keys;
  {
    auto kv = client.OpenKv("/job/kv");
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < kStable; ++i) {
      stable_keys.push_back("stable" + std::to_string(i));
      ASSERT_TRUE((*kv)->Put(stable_keys.back(), "constant-value").ok());
    }
  }
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    auto kv = client.OpenKv("/job/kv");
    ASSERT_TRUE(kv.ok());
    Rng rng(7);
    const TimeNs until = RealClock::Instance()->Now() + 100 * kMillisecond;
    for (int round = 0; RealClock::Instance()->Now() < until || round < 2;
         ++round) {
      for (int i = 0; i < 250; ++i) {
        ASSERT_TRUE((*kv)
                        ->Put("churn" + std::to_string(i),
                              std::string(80 + rng.NextBelow(40), 'c'))
                        .ok());
      }
      for (int i = 0; i < 250; ++i) {
        ASSERT_TRUE((*kv)->Delete("churn" + std::to_string(i)).ok());
      }
    }
  });
  std::vector<std::thread> readers;
  std::atomic<uint64_t> reads{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      auto kv = client.OpenKv("/job/kv");
      ASSERT_TRUE(kv.ok());
      const std::vector<std::string_view> views(stable_keys.begin(),
                                                stable_keys.end());
      while (!stop.load()) {
        KvClient::PinnedValues pinned = (*kv)->MultiGetPinned(views);
        ASSERT_EQ(pinned.values.size(), views.size());
        // Deliberately dwell with the pins held so migrations and
        // compactions get a chance to replace the generation under us.
        for (int spin = 0; spin < 8; ++spin) {
          std::this_thread::yield();
        }
        for (size_t i = 0; i < pinned.values.size(); ++i) {
          ASSERT_TRUE(pinned.values[i].ok())
              << stable_keys[i] << ": " << pinned.values[i].status();
          ASSERT_EQ(*pinned.values[i], "constant-value") << stable_keys[i];
        }
        reads.fetch_add(1);
      }
    });
  }
  churner.join();
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  cluster->repartitioner()->WaitIdle();
  // Each read is a full 16-key pinned batch with retries, so under a loaded
  // CI machine only a handful complete inside the churn window — any nonzero
  // count means pinned views were validated against live migrations.
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(cluster->repartitioner()->splits() +
                cluster->repartitioner()->merges(),
            0u);
}

}  // namespace
}  // namespace jiffy
