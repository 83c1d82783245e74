// Concurrency and fault stress tests: many clients hammering one data
// structure through scaling events, multi-producer/multi-consumer queues,
// failover under load, and expiry racing live writers.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "src/client/jiffy_client.h"
#include "src/common/random.h"

namespace jiffy {
namespace {

std::unique_ptr<JiffyCluster> StressCluster(uint32_t blocks_per_server = 256,
                                            size_t block_size = 4096) {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = blocks_per_server;
  opts.config.block_size_bytes = block_size;
  opts.config.lease_duration = 3600 * kSecond;
  return std::make_unique<JiffyCluster>(opts);
}

TEST(StressTest, ConcurrentFileAppendersPreserveEveryRecord) {
  auto cluster = StressCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/f", {}).ok());
  constexpr int kWriters = 4;
  constexpr int kRecords = 200;
  // Fixed-size records so they can be reparsed from any interleaving.
  auto record = [](int w, int i) {
    char buf[33];
    std::snprintf(buf, sizeof(buf), "W%02dR%06d%21s", w, i, "|");
    return std::string(buf, 32);
  };
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto file = client.OpenFile("/job/f");
      ASSERT_TRUE(file.ok());
      for (int i = 0; i < kRecords; ++i) {
        ASSERT_TRUE((*file)->Append(record(w, i)).ok()) << w << " " << i;
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  auto file = client.OpenFile("/job/f");
  ASSERT_TRUE(file.ok());
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, static_cast<uint64_t>(kWriters) * kRecords * 32);
  auto all = (*file)->Read(0, *size);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), *size);
  // Every record appears exactly once (appends are atomic per record
  // because each record fits one Append call... except across block
  // boundaries, where a record may be split but its bytes stay ordered).
  std::set<std::string> seen;
  size_t found = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kRecords; ++i) {
      const std::string r = record(w, i).substr(0, 10);  // "WxxRyyyyyy".
      if (all->find(r) != std::string::npos) {
        found++;
      }
    }
  }
  EXPECT_EQ(found, static_cast<size_t>(kWriters) * kRecords);
}

TEST(StressTest, QueueMpmcExactlyOnceDelivery) {
  auto cluster = StressCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/q", {}).ok());
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kItems = 400;
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
                           std::string(24, '.');
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
  EXPECT_EQ(consumed.load(), kProducers * kItems);
  // Exactly-once: no duplicates, no losses.
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers) * kItems);
  for (const auto& item : seen) {
    EXPECT_EQ(seen.count(item), 1u) << item;
  }
}

TEST(StressTest, KvChurnWithConcurrentReadersThroughSplitsAndMerges) {
  auto cluster = StressCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  std::atomic<bool> stop{false};
  // Stable keys a reader continuously verifies while a churner forces
  // splits (grow) and merges (shrink) underneath it.
  {
    auto kv = client.OpenKv("/job/kv");
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(
          (*kv)->Put("stable" + std::to_string(i), "constant-value").ok());
    }
  }
  std::thread churner([&] {
    auto kv = client.OpenKv("/job/kv");
    ASSERT_TRUE(kv.ok());
    Rng rng(7);
    // Churn for at least 100 ms of wall time so the readers overlap real
    // split/merge activity even on a fast box.
    const TimeNs until = RealClock::Instance()->Now() + 100 * kMillisecond;
    for (int round = 0; RealClock::Instance()->Now() < until || round < 2;
         ++round) {
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE((*kv)
                        ->Put("churn" + std::to_string(i),
                              std::string(80 + rng.NextBelow(40), 'c'))
                        .ok());
      }
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE((*kv)->Delete("churn" + std::to_string(i)).ok());
      }
    }
  });
  std::vector<std::thread> readers;
  std::atomic<uint64_t> reads{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto kv = client.OpenKv("/job/kv");
      ASSERT_TRUE(kv.ok());
      Rng rng(13);
      while (!stop.load()) {
        auto v = (*kv)->Get("stable" + std::to_string(rng.NextBelow(32)));
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
  EXPECT_GT(reads.load(), 10u);
  // Drain queued pressure flags so the counters reflect processed scaling.
  cluster->repartitioner()->WaitIdle();
  // The state registry saw real scaling activity.
  auto state = cluster->registry()->Find("job", "kv");
  ASSERT_NE(state, nullptr);
  EXPECT_GT(state->splits.load() + state->merges.load(), 0u);
}

TEST(StressTest, ReplicatedKvFailoverUnderLoad) {
  auto cluster = StressCluster(64, 16 << 10);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  CreateOptions opts;
  opts.replication_factor = 2;
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}, opts).ok());
  auto seed_kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(seed_kv.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*seed_kv)->Put("k" + std::to_string(i), "v").ok());
  }
  const BlockId primary = (*seed_kv)->CachedMap().entries[0].block;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> oks{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      auto kv = client.OpenKv("/job/kv");
      ASSERT_TRUE(kv.ok());
      Rng rng(w + 1);
      while (!stop.load()) {
        const std::string key = "k" + std::to_string(rng.NextBelow(50));
        auto v = (*kv)->Get(key);
        // Only kUnavailable-free results are acceptable: the chain replica
        // must absorb the failure transparently.
        ASSERT_TRUE(v.ok()) << v.status();
        oks.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cluster->FailServer(primary.server_id);  // Mid-load failure.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : workers) {
    t.join();
  }
  EXPECT_GT(oks.load(), 100u);
}

TEST(StressTest, ExpiryBetweenPhasesIsCleanlyReported) {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 2;
  opts.config.blocks_per_server = 32;
  opts.config.block_size_bytes = 4096;
  opts.config.lease_duration = 1 * kSecond;
  SimClock clock;
  opts.clock = &clock;
  JiffyCluster cluster(opts);
  JiffyClient client(&cluster);
  ASSERT_TRUE(client.RegisterJob("j").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/j/kv", {}).ok());
  auto kv = client.OpenKv("/j/kv");
  ASSERT_TRUE(kv.ok());
  for (int round = 0; round < 3; ++round) {
    // Phase 1: write with a live lease.
    ASSERT_TRUE(client.RenewLease("/j/kv").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*kv)->Put("r" + std::to_string(round) + "-" +
                                 std::to_string(i),
                             "v")
                      .ok());
    }
    // Phase 2: lease lapses; operations report kLeaseExpired, not garbage.
    clock.AdvanceBy(2 * kSecond);
    ASSERT_EQ(cluster.controller_shard(0)->RunExpiryScan(), 1u);
    EXPECT_EQ((*kv)->Get("r0-0").status().code(), StatusCode::kLeaseExpired);
    EXPECT_EQ((*kv)->Put("x", "y").code(), StatusCode::kLeaseExpired);
    // Phase 3: reload revives everything written so far.
    ASSERT_TRUE(client.LoadAddrPrefix("/j/kv", "jiffy/j/kv").ok());
    for (int rr = 0; rr <= round; ++rr) {
      auto v = (*kv)->Get("r" + std::to_string(rr) + "-7");
      ASSERT_TRUE(v.ok()) << "round " << round << " rr " << rr << ": "
                          << v.status();
    }
  }
}

}  // namespace
}  // namespace jiffy
