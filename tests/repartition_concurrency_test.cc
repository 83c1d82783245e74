// Background-repartitioner concurrency tests: clients keep reading and
// writing while chunked live migrations (splits and merges) are in flight.
// Chunk sizes are set tiny relative to the block size so every migration
// spans many chunk copies plus a dirty catch-up — the windows where data
// could be lost or duplicated if the protocol were wrong.
//
// Suite name contains "Concurrency" so the TSan CI job picks it up.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/client/jiffy_client.h"
#include "src/common/random.h"
#include "src/ds/kv_content.h"
#include "src/wire/gateway.h"
#include "src/wire/wire_kv_client.h"

namespace jiffy {
namespace {

std::unique_ptr<JiffyCluster> MigrationCluster(size_t chunk_bytes) {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 256;
  opts.config.block_size_bytes = 4096;
  opts.config.repartition_chunk_bytes = chunk_bytes;
  opts.config.lease_duration = 3600 * kSecond;
  return std::make_unique<JiffyCluster>(opts);
}

void DrainRepartitioner(JiffyCluster* cluster) {
  cluster->repartitioner()->WaitIdle();
}

TEST(RepartitionConcurrencyTest, WritersDuringChunkedSplitLoseNoPairs) {
  auto cluster = MigrationCluster(/*chunk_bytes=*/512);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  // Disjoint per-writer key spaces with unique values: a lost pair fails the
  // per-key read-back, a duplicated pair inflates CountPairs.
  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 250;
  auto key_of = [](int w, int i) {
    return "w" + std::to_string(w) + "-" + std::to_string(i);
  };
  auto value_of = [](int w, int i) {
    return "v" + std::to_string(w) + ":" + std::to_string(i) +
           std::string(48, 'd');
  };
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto kv = client.OpenKv("/job/kv");
      ASSERT_TRUE(kv.ok());
      for (int i = 0; i < kKeysPerWriter; ++i) {
        ASSERT_TRUE((*kv)->Put(key_of(w, i), value_of(w, i)).ok())
            << key_of(w, i);
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  DrainRepartitioner(cluster.get());
  // The write volume (~60 KiB into 4 KiB blocks) guarantees real splits ran
  // concurrently with the writers above.
  EXPECT_GT(cluster->repartitioner()->splits(), 0u);
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->RefreshMap().ok());
  EXPECT_GT((*kv)->CachedMap().entries.size(), 1u);
  EXPECT_EQ(*(*kv)->CountPairs(),
            static_cast<size_t>(kWriters) * kKeysPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      auto got = (*kv)->Get(key_of(w, i));
      ASSERT_TRUE(got.ok()) << key_of(w, i) << ": " << got.status();
      EXPECT_EQ(*got, value_of(w, i)) << key_of(w, i);
    }
  }
}

TEST(RepartitionConcurrencyTest, ReadersSeeStableValuesThroughMigrations) {
  auto cluster = MigrationCluster(/*chunk_bytes=*/512);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  // Stable keys that never change; their slots ride along as churn forces
  // splits (grow) and merges (shrink) underneath the readers.
  constexpr int kStable = 24;
  {
    auto kv = client.OpenKv("/job/kv");
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < kStable; ++i) {
      ASSERT_TRUE(
          (*kv)->Put("stable" + std::to_string(i), "constant-value").ok());
    }
  }
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    auto kv = client.OpenKv("/job/kv");
    ASSERT_TRUE(kv.ok());
    Rng rng(11);
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
    readers.emplace_back([&, r] {
      auto kv = client.OpenKv("/job/kv");
      ASSERT_TRUE(kv.ok());
      Rng rng(100 + r);
      while (!stop.load()) {
        auto v = (*kv)->Get("stable" + std::to_string(rng.NextBelow(kStable)));
        ASSERT_TRUE(v.ok()) << v.status();
        ASSERT_EQ(*v, "constant-value");
        reads.fetch_add(1);
      }
    });
  }
  churner.join();
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  DrainRepartitioner(cluster.get());
  EXPECT_GT(reads.load(), 10u);
  EXPECT_GT(cluster->repartitioner()->splits() +
                cluster->repartitioner()->merges(),
            0u);
}

TEST(RepartitionConcurrencyTest, MixedChurnConvergesThroughSplitsAndMerges) {
  auto cluster = MigrationCluster(/*chunk_bytes=*/256);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  // Each thread fills then thins its own key space, so overload flags
  // (splits) and underload flags (merges) are both raised while every
  // thread's survivors must come through untouched.
  constexpr int kThreads = 4;
  constexpr int kKeys = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto kv = client.OpenKv("/job/kv");
      ASSERT_TRUE(kv.ok());
      for (int i = 0; i < kKeys; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE((*kv)->Put(key, std::string(90, 'a' + t)).ok()) << key;
      }
      // Delete everything but every 10th key: drains most blocks below the
      // low threshold while siblings still hold live data.
      for (int i = 0; i < kKeys; ++i) {
        if (i % 10 == 0) {
          continue;
        }
        const std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE((*kv)->Delete(key).ok()) << key;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  DrainRepartitioner(cluster.get());
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->RefreshMap().ok());
  const size_t survivors_per_thread = (kKeys + 9) / 10;
  EXPECT_EQ(*(*kv)->CountPairs(), kThreads * survivors_per_thread);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeys; i += 10) {
      const std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
      auto got = (*kv)->Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status();
      EXPECT_EQ(*got, std::string(90, 'a' + t)) << key;
    }
  }
}

// A split halves a block's slot range, not necessarily its usage, so a block
// at several times its capacity needs its halves split again. The pairs go
// straight into the shard, past the clients' pressure checks, so the one
// hand-raised flag is the only trigger: each split must re-queue both of
// its halves until every splittable block is under the threshold.
TEST(RepartitionConcurrencyTest, SplitRequeuesBothHalvesUntilUnderThreshold) {
  auto cluster = MigrationCluster(/*chunk_bytes=*/512);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_EQ((*kv)->CachedMap().entries.size(), 1u);
  Block* block = cluster->ResolveBlock((*kv)->CachedMap().entries[0].block);
  ASSERT_NE(block, nullptr);
  std::vector<std::string> keys;
  {
    Block::OpLock lock(*block);
    auto* shard = ContentAs<KvShard>(block->content());
    ASSERT_NE(shard, nullptr);
    while (shard->used_bytes() < 4 * block->capacity()) {
      keys.push_back("key" + std::to_string(keys.size()));
      ASSERT_TRUE(shard->Put(keys.back(), "value-" + keys.back()).ok());
    }
  }
  Repartitioner::Hint hint;
  hint.job = "job";
  hint.prefix = "kv";
  hint.block = block->id();
  cluster->repartitioner()->Flag(block, std::move(hint));
  DrainRepartitioner(cluster.get());

  ASSERT_TRUE((*kv)->RefreshMap().ok());
  const double high = cluster->config().repartition_high_threshold;
  for (const PartitionEntry& e : (*kv)->CachedMap().entries) {
    if (e.hi - e.lo <= 1) {
      continue;  // One slot cannot split further.
    }
    Block* b = cluster->ResolveBlock(e.block);
    ASSERT_NE(b, nullptr);
    EXPECT_LT(static_cast<double>(b->UsedBytes()),
              high * static_cast<double>(b->capacity()))
        << "slots [" << e.lo << ", " << e.hi << ")";
  }
  for (const std::string& key : keys) {
    auto got = (*kv)->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status();
    EXPECT_EQ(*got, "value-" + key);
  }
}

TEST(RepartitionConcurrencyTest, QueueBackgroundScalingKeepsExactlyOnce) {
  auto cluster = MigrationCluster(/*chunk_bytes=*/512);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/q", {}).ok());
  // Background tail growth + head reclaim run while producers and consumers
  // race; every item must be delivered exactly once.
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kItems = 300;
  std::vector<std::thread> threads;
  std::mutex seen_mu;
  std::multiset<std::string> seen;
  std::atomic<int> consumed{0};
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      auto q = client.OpenQueue("/job/q");
      ASSERT_TRUE(q.ok());
      for (int i = 0; i < kItems; ++i) {
        std::string item = "p" + std::to_string(p) + ":" + std::to_string(i) +
                           std::string(40, '.');
        ASSERT_TRUE((*q)->Enqueue(std::move(item)).ok());
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      auto q = client.OpenQueue("/job/q");
      ASSERT_TRUE(q.ok());
      while (consumed.load() < kProducers * kItems) {
        auto item = (*q)->DequeueWait(3 * kSecond);
        if (!item.ok()) {
          break;
        }
        {
          std::lock_guard<std::mutex> lock(seen_mu);
          seen.insert(item->substr(0, item->find('.')));
        }
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  DrainRepartitioner(cluster.get());
  EXPECT_EQ(consumed.load(), kProducers * kItems);
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers) * kItems);
  for (const auto& item : seen) {
    EXPECT_EQ(seen.count(item), 1u) << item;
  }
}

// The window between a split's final hold and its commit (DESIGN.md §9,
// phases 5-6): the shards have flipped ownership of [mid, hi) to the
// destination, but the controller still maps the range to the source. A
// reader there gets kStaleMetadata, refreshes, and receives the same map
// until the commit lands; it must wait the commit out, not fail. The split
// runs by hand so the test decides when the commit happens: only after the
// reader has refreshed more than 64 times, so a reader that gives up after
// a fixed 64 stale retries fails, or once the reader has returned.
class KvStaleWindowConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    JiffyCluster::Options opts;
    opts.config.num_memory_servers = 2;
    opts.config.blocks_per_server = 16;
    opts.config.block_size_bytes = 64 << 10;
    opts.config.lease_duration = 3600 * kSecond;
    cluster_ = std::make_unique<JiffyCluster>(opts);
    client_ = std::make_unique<JiffyClient>(cluster_.get());
    ASSERT_TRUE(client_->RegisterJob("job").ok());
    ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
    auto kv = client_->OpenKv("/job/kv");
    ASSERT_TRUE(kv.ok());
    kv_ = std::move(*kv);
    const PartitionMap map = kv_->CachedMap();
    ASSERT_EQ(map.entries.size(), 1u);
    src_ = map.entries[0].block;
    lo_ = static_cast<uint32_t>(map.entries[0].lo);
    hi_ = static_cast<uint32_t>(map.entries[0].hi);
    mid_ = lo_ + (hi_ - lo_) / 2;
    // Keys on both sides of the split point; the upper ones move.
    for (int i = 0; keys_.size() < 8; ++i) {
      const std::string key = "key" + std::to_string(i);
      const bool upper = KvSlotOf(key, opts.config.kv_hash_slots) >= mid_;
      if (upper || keys_.size() < 2) {
        keys_.push_back(key);
        ASSERT_TRUE(kv_->Put(key, "value-" + key).ok());
      }
    }
  }

  // Phases 1-5 of a split, without the commit: bracket the source, stage
  // an unmapped destination owning [mid, mid), then under both block locks
  // move the upper half and flip shard ownership.
  void SplitWithoutCommit() {
    Controller* ctl = cluster_->ControllerFor("job");
    ASSERT_TRUE(ctl->BeginMigration("job", "kv", src_).ok());
    auto dest = ctl->AllocateUnmapped("job", "kv", mid_, mid_);
    ASSERT_TRUE(dest.ok()) << dest.status();
    dest_ = *dest;
    Block* src = cluster_->ResolveBlock(src_);
    Block* dst = cluster_->ResolveBlock(dest_);
    ASSERT_NE(src, nullptr);
    ASSERT_NE(dst, nullptr);
    Block::OpLock lock_a(src->id() < dst->id() ? *src : *dst);
    Block::OpLock lock_b(src->id() < dst->id() ? *dst : *src);
    auto* shard = ContentAs<KvShard>(src->content());
    auto* dshard = ContentAs<KvShard>(dst->content());
    ASSERT_NE(shard, nullptr);
    ASSERT_NE(dshard, nullptr);
    ASSERT_TRUE(shard->BeginMigration(mid_).ok());
    std::vector<std::pair<std::string, std::string>> pairs;
    size_t cursor = 0;
    while (!shard->SplitOffChunk(&cursor, 1 << 20, &pairs)) {
    }
    ASSERT_FALSE(pairs.empty());
    ASSERT_TRUE(dshard->MoveInPairs(mid_, hi_, &pairs).ok());
    ASSERT_TRUE(dshard->ExtendRange(mid_, hi_).ok());
    shard->FinishMigration();
  }

  // Phase 6: publishes the split in the controller's map.
  void CommitSplit() {
    PartitionEntry fresh;
    fresh.block = dest_;
    fresh.lo = mid_;
    fresh.hi = hi_;
    EXPECT_TRUE(cluster_->ControllerFor("job")
                    ->CommitSplit("job", "kv", src_, lo_, mid_, fresh)
                    .ok());
  }

  // Publishes the split once the reader has made more than 64 control
  // exchanges (map refreshes) or has returned, whichever comes first.
  std::thread CommitAfterRefreshes(const std::atomic<bool>* reader_done) {
    Transport* control = cluster_->control_transport();
    const uint64_t base = control->total_rpcs();
    return std::thread([this, control, base, reader_done] {
      while (control->total_rpcs() - base <= 64 &&
             !reader_done->load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      CommitSplit();
    });
  }

  std::unique_ptr<JiffyCluster> cluster_;
  std::unique_ptr<JiffyClient> client_;
  std::unique_ptr<KvClient> kv_;
  std::vector<std::string> keys_;
  BlockId src_;
  BlockId dest_;
  uint32_t lo_ = 0;
  uint32_t mid_ = 0;
  uint32_t hi_ = 0;
};

TEST_F(KvStaleWindowConcurrencyTest, GetWaitsOutPendingCommit) {
  SplitWithoutCommit();
  const std::string& moved = keys_.back();
  ASSERT_GE(KvSlotOf(moved, cluster_->config().kv_hash_slots), mid_);
  std::atomic<bool> reader_done{false};
  std::thread committer = CommitAfterRefreshes(&reader_done);
  Result<std::string> got = kv_->Get(moved);
  reader_done.store(true, std::memory_order_release);
  committer.join();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, "value-" + moved);
}

TEST_F(KvStaleWindowConcurrencyTest, MultiGetPinnedWaitsOutPendingCommit) {
  SplitWithoutCommit();
  const std::vector<std::string_view> views(keys_.begin(), keys_.end());
  std::atomic<bool> reader_done{false};
  std::thread committer = CommitAfterRefreshes(&reader_done);
  KvClient::PinnedValues pinned = kv_->MultiGetPinned(views);
  reader_done.store(true, std::memory_order_release);
  committer.join();
  ASSERT_EQ(pinned.values.size(), keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) {
    ASSERT_TRUE(pinned.values[i].ok())
        << keys_[i] << ": " << pinned.values[i].status();
    EXPECT_EQ(*pinned.values[i], "value-" + keys_[i]);
  }
}

// The same window over the wire (DESIGN.md §12): a WireGateway serves the
// blocks, and the WireKvClient's map refresher returns the pre-split map
// until its fifth call, which commits the split first. The reader must keep
// refreshing, bounded by op_deadline, rather than give up after a fixed
// number of stale rounds. The refresher runs on the reader's thread, so the
// test needs no threads and no sleeps.
class WireStaleWindowTest : public KvStaleWindowConcurrencyTest {
 protected:
  static constexpr int kCommitOnRefresh = 5;

  void SetUp() override {
    KvStaleWindowConcurrencyTest::SetUp();
    gateway_ = std::make_unique<WireGateway>(cluster_.get());
    ASSERT_TRUE(gateway_->Start().ok());
  }

  void TearDown() override { gateway_->Stop(); }

  WireKvClient StaleMapClient() {
    WireKvClient::Options options;
    options.map_refresher = [this]() -> Result<WireMap> {
      if (++refreshes_ == kCommitOnRefresh) {
        CommitSplit();
      }
      JIFFY_RETURN_IF_ERROR(kv_->RefreshMap());
      return gateway_->MapFor(kv_->CachedMap());
    };
    return WireKvClient(gateway_->MapFor(kv_->CachedMap()),
                        std::move(options));
  }

  std::unique_ptr<WireGateway> gateway_;
  int refreshes_ = 0;
};

TEST_F(WireStaleWindowTest, GetWaitsOutPendingCommit) {
  SplitWithoutCommit();
  const std::string& moved = keys_.back();
  ASSERT_GE(KvSlotOf(moved, cluster_->config().kv_hash_slots), mid_);
  WireKvClient wire = StaleMapClient();
  Result<std::string> got = wire.Get(moved);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, "value-" + moved);
  EXPECT_EQ(refreshes_, kCommitOnRefresh);
}

TEST_F(WireStaleWindowTest, MultiGetWaitsOutPendingCommit) {
  SplitWithoutCommit();
  const std::vector<std::string_view> views(keys_.begin(), keys_.end());
  WireKvClient wire = StaleMapClient();
  WireValues got = wire.MultiGet(views);
  ASSERT_EQ(got.size(), keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << keys_[i] << ": " << got[i].status();
    EXPECT_EQ(*got[i], "value-" + keys_[i]);
  }
  EXPECT_EQ(refreshes_, kCommitOnRefresh);
}

}  // namespace
}  // namespace jiffy
