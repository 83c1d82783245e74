// Concurrency tests for the two-level control-plane synchronization
// (DESIGN.md §8): many client threads hammer ONE controller shard with
// renewals, partition-map fetches, block growth, two-phase splits, expiry
// scans, snapshots, and job register/deregister churn — all at once. The
// assertions check the invariants the locking scheme must preserve:
//
//   - no lost updates: partition-map versions and stats counters equal the
//     number of successful mutations (every bump happened exactly once);
//   - no double-free / no leak: after tearing everything down the allocator
//     is back to fully free, and never over-frees mid-run;
//   - snapshots taken under load are internally consistent (they Restore
//     cleanly into a fresh standby controller);
//   - operations racing DeregisterJob either succeed or fail kNotFound —
//     never crash, corrupt, or resurrect the job.
//
// Run under ThreadSanitizer via -DJIFFY_SANITIZE=thread (see CI).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/clock.h"

namespace jiffy {
namespace {

constexpr int kThreads = 8;

std::unique_ptr<JiffyCluster> BigCluster() {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 512;
  opts.config.block_size_bytes = 1024;
  opts.config.lease_duration = 3600 * kSecond;
  opts.config.controller_shards = 1;  // Everything lands on one shard.
  return std::make_unique<JiffyCluster>(opts);
}

// A linear chain DAG ("n0" → "n1" → ... ) so renewals have real fan-out.
std::vector<std::pair<std::string, std::vector<std::string>>> ChainDag(
    int depth) {
  std::vector<std::pair<std::string, std::vector<std::string>>> dag;
  for (int i = 0; i < depth; ++i) {
    std::vector<std::string> parents;
    if (i > 0) {
      parents.push_back("n" + std::to_string(i - 1));
    }
    dag.emplace_back("n" + std::to_string(i), std::move(parents));
  }
  return dag;
}

// Renewals and map fetches for *different jobs in the same shard* running
// from many threads: counters must account for every successful call.
TEST(ControllerConcurrencyTest, ParallelRenewalsAndFetchesAcrossJobs) {
  auto cluster = BigCluster();
  Controller* ctl = cluster->controller_shard(0);
  for (int j = 0; j < kThreads; ++j) {
    const std::string job = "job" + std::to_string(j);
    ASSERT_TRUE(ctl->RegisterJob(job).ok());
    ASSERT_TRUE(ctl->CreateHierarchy(job, ChainDag(8)).ok());
    ASSERT_TRUE(ctl->InitDataStructure(job, "n0", DsType::kKvStore, 0).ok());
  }
  const uint64_t base_renewals = ctl->Stats().lease_renewals;

  std::atomic<uint64_t> renew_ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string job = "job" + std::to_string(t);
      for (int i = 0; i < 2000; ++i) {
        if (i % 4 == 0) {
          auto map = ctl->GetPartitionMap(job, "n0");
          ASSERT_TRUE(map.ok()) << map.status();
          ASSERT_GE(map->version, 1u);
        } else {
          const std::string prefix = "n" + std::to_string(i % 8);
          auto renewed = ctl->RenewLease(job, prefix);
          ASSERT_TRUE(renewed.ok()) << renewed.status();
          // Chain DAG: prefix + parent + all descendants = whole chain tail.
          ASSERT_GE(*renewed, 1u);
          renew_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Exactly one lease_renewals bump per successful renewal — none lost to
  // racy read-modify-write.
  EXPECT_EQ(ctl->Stats().lease_renewals - base_renewals, renew_ok.load());
}

// Concurrent growth of partition maps (AddBlock) plus two-phase splits
// (AllocateUnmapped → CommitSplit) on per-thread prefixes of one job, with
// an expiry-scan thread sweeping throughout. Versions must count every
// successful mutation exactly once, and the allocator must balance.
TEST(ControllerConcurrencyTest, NoLostVersionBumpsUnderGrowthAndSplits) {
  auto cluster = BigCluster();
  Controller* ctl = cluster->controller_shard(0);
  auto allocator = ctl->allocator();
  const uint32_t total_blocks = allocator->total_count();

  ASSERT_TRUE(ctl->RegisterJob("job").ok());
  for (int t = 0; t < kThreads; ++t) {
    const std::string prefix = "p" + std::to_string(t);
    ASSERT_TRUE(ctl->CreateAddrPrefix("job", prefix, {}).ok());
    ASSERT_TRUE(
        ctl->InitDataStructure("job", prefix, DsType::kKvStore, 0).ok());
  }

  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ctl->RunExpiryScan();  // Leases are hours long: finds nothing, but
    }                        // interleaves with every job mutex.
  });

  std::vector<uint64_t> mutations(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string prefix = "p" + std::to_string(t);
      uint64_t ok = 0;
      for (int i = 0; i < 150; ++i) {
        if (i % 3 == 0) {
          // Two-phase split: stage an unmapped block, then publish it.
          auto staged = ctl->AllocateUnmapped("job", prefix, 0, 0);
          ASSERT_TRUE(staged.ok()) << staged.status();
          if (i % 6 == 0) {
            PartitionEntry entry;
            entry.block = *staged;
            entry.lo = 1000 + i;
            entry.hi = 1001 + i;
            auto map = ctl->GetPartitionMap("job", prefix);
            ASSERT_TRUE(map.ok());
            const PartitionEntry& victim = map->entries.front();
            // A commit requires the migration bracket; opening it does not
            // bump the map version.
            ASSERT_TRUE(ctl->BeginMigration("job", prefix, victim.block).ok());
            ASSERT_TRUE(ctl->CommitSplit("job", prefix, victim.block,
                                         victim.lo, victim.hi, entry)
                            .ok());
            ok++;
          } else {
            // Move failed: return the staged block.
            ASSERT_TRUE(ctl->AbortUnmapped(*staged).ok());
          }
        } else {
          auto added = ctl->AddBlock("job", prefix, i, i + 1);
          ASSERT_TRUE(added.ok()) << added.status();
          ok++;
        }
      }
      mutations[t] = ok;
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  stop.store(true);
  scanner.join();

  for (int t = 0; t < kThreads; ++t) {
    const std::string prefix = "p" + std::to_string(t);
    auto map = ctl->GetPartitionMap("job", prefix);
    ASSERT_TRUE(map.ok());
    // InitDataStructure leaves version 1; each successful mutation bumps it
    // exactly once.
    EXPECT_EQ(map->version, 1 + mutations[t]) << prefix;
  }
  // Every block is either mapped under the job or back on the free list.
  EXPECT_EQ(allocator->free_count() + allocator->allocated_count(),
            total_blocks);
  ASSERT_TRUE(ctl->DeregisterJob("job").ok());
  EXPECT_EQ(allocator->free_count(), total_blocks);
  EXPECT_EQ(allocator->allocated_count(), 0u);
}

// Snapshots taken while other jobs mutate must always parse and Restore
// into a fresh standby controller: per-job quiescing may omit in-flight
// registrations but can never emit a torn job record.
TEST(ControllerConcurrencyTest, SnapshotIsConsistentUnderLoad) {
  auto cluster = BigCluster();
  Controller* ctl = cluster->controller_shard(0);

  for (int j = 0; j < 4; ++j) {
    const std::string job = "job" + std::to_string(j);
    ASSERT_TRUE(ctl->RegisterJob(job).ok());
    ASSERT_TRUE(ctl->CreateHierarchy(job, ChainDag(6)).ok());
    ASSERT_TRUE(ctl->InitDataStructure(job, "n0", DsType::kFile, 4096).ok());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const std::string job = "job" + std::to_string(t);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)ctl->RenewLease(job, "n" + std::to_string(i % 6));
        (void)ctl->AddBlock("job" + std::to_string(t), "n0", i, i + 1);
        // Churn the job table too: snapshots race registrations.
        const std::string churn = "churn" + std::to_string(t);
        (void)ctl->RegisterJob(churn);
        (void)ctl->DeregisterJob(churn);
        ++i;
      }
    });
  }

  SimClock standby_clock;
  for (int round = 0; round < 50; ++round) {
    const std::string snap = ctl->Snapshot();
    Controller standby(ctl->config(), &standby_clock,
                       std::make_shared<BlockAllocator>(4, 512),
                       /*hooks=*/nullptr, /*backing=*/nullptr);
    Status st = standby.Restore(snap);
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st;
    // The four long-lived jobs were registered before the load started, so
    // every snapshot must contain them whole.
    for (int j = 0; j < 4; ++j) {
      const std::string job = "job" + std::to_string(j);
      ASSERT_TRUE(standby.HasJob(job)) << "round " << round;
      auto map = standby.GetPartitionMap(job, "n0");
      ASSERT_TRUE(map.ok()) << "round " << round << ": " << map.status();
      ASSERT_GE(map->entries.size(), 4u);
    }
  }
  stop.store(true);
  for (auto& th : threads) {
    th.join();
  }
}

// Requests racing DeregisterJob: every op either succeeds or fails with
// kNotFound (the job vanished) — and a deregistered job's blocks are all
// back on the free list even with renewals/growth in flight.
TEST(ControllerConcurrencyTest, DeregistrationRacesInFlightOps) {
  auto cluster = BigCluster();
  Controller* ctl = cluster->controller_shard(0);
  auto allocator = ctl->allocator();
  const uint32_t total_blocks = allocator->total_count();

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads - 1; ++t) {
    workers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string prefix = "n" + std::to_string((t + i++) % 6);
        auto renewed = ctl->RenewLease("victim", prefix);
        if (!renewed.ok()) {
          ASSERT_EQ(renewed.status().code(), StatusCode::kNotFound)
              << renewed.status();
        }
        auto added = ctl->AddBlock("victim", "n0", i, i + 1);
        if (!added.ok()) {
          // kNotFound: job or prefix gone. kFailedPrecondition: the fresh
          // incarnation has no data structure yet. kOutOfMemory: workers
          // drained the pool before this round's teardown released it.
          ASSERT_TRUE(added.status().code() == StatusCode::kNotFound ||
                      added.status().code() ==
                          StatusCode::kFailedPrecondition ||
                      added.status().code() == StatusCode::kOutOfMemory)
              << added.status();
        }
      }
    });
  }

  for (int round = 0; round < 60; ++round) {
    ASSERT_TRUE(ctl->RegisterJob("victim").ok());
    ASSERT_TRUE(ctl->CreateHierarchy("victim", ChainDag(6)).ok());
    ASSERT_TRUE(
        ctl->InitDataStructure("victim", "n0", DsType::kKvStore, 0).ok());
    // Let workers pile on, then tear the job down mid-flight.
    std::this_thread::yield();
    ASSERT_TRUE(ctl->DeregisterJob("victim").ok());
    EXPECT_FALSE(ctl->HasJob("victim"));
  }
  stop.store(true);
  for (auto& th : workers) {
    th.join();
  }
  // Nothing leaked, nothing double-freed.
  EXPECT_EQ(allocator->free_count(), total_blocks);
  EXPECT_EQ(allocator->allocated_count(), 0u);
}

// The shared allocator itself under cross-job fire: concurrent AllocateN
// bursts (all-or-nothing) against single Allocate/Free churn, with a server
// dying mid-run. Accounting must stay exact.
TEST(ControllerConcurrencyTest, ShardedAllocatorCrossJobChurn) {
  BlockAllocator allocator(4, 256);
  const uint32_t total = allocator.total_count();

  std::vector<std::thread> threads;
  std::atomic<uint32_t> outstanding{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string owner = "job" + std::to_string(t) + "/p";
      std::vector<BlockId> held;
      for (int i = 0; i < 400; ++i) {
        if (i % 7 == 0) {
          auto batch = allocator.AllocateN(owner, 4);
          if (batch.ok()) {
            held.insert(held.end(), batch->begin(), batch->end());
          }
        } else if (i % 2 == 0 || held.empty()) {
          auto id = allocator.Allocate(owner);
          if (id.ok()) {
            held.push_back(*id);
          }
        } else {
          Status st = allocator.Free(held.back());
          held.pop_back();
          // A Free may hit a server marked dead mid-run (silently retired),
          // but never a double-free.
          ASSERT_NE(st.code(), StatusCode::kInvalidArgument) << st;
        }
      }
      ASSERT_EQ(allocator.OwnerCount(owner), held.size());
      outstanding.fetch_add(static_cast<uint32_t>(held.size()));
      for (const BlockId& id : held) {
        allocator.Free(id);
      }
    });
  }
  // Kill a server while the churn runs.
  allocator.MarkServerDead(2);
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_GT(outstanding.load(), 0u);
  // Server 2's surviving blocks left the pool; the other three servers'
  // blocks are all free again.
  EXPECT_EQ(allocator.allocated_count() + allocator.free_count(), total);
  EXPECT_GE(allocator.free_count(), 3u * 256u);
  EXPECT_LE(allocator.peak_allocated(), total);
}

}  // namespace
}  // namespace jiffy
