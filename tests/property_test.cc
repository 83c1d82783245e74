// Property-based tests: each data structure is driven with long random
// operation sequences (parameterized over seeds) and checked against a
// simple in-memory reference model, across block boundaries, splits,
// merges, and lease-policy variants.

#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "src/client/jiffy_client.h"
#include "src/common/random.h"

namespace jiffy {
namespace {

std::unique_ptr<JiffyCluster> SmallCluster() {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 256;
  opts.config.block_size_bytes = 2048;  // Tiny blocks: constant scaling.
  opts.config.lease_duration = 3600 * kSecond;
  return std::make_unique<JiffyCluster>(opts);
}

class DsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DsPropertyTest, FileMatchesReferenceByteString) {
  auto cluster = SmallCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/f", {}).ok());
  auto file = client.OpenFile("/job/f");
  ASSERT_TRUE(file.ok());

  Rng rng(GetParam());
  std::string reference;
  for (int op = 0; op < 300; ++op) {
    if (rng.NextBelow(3) != 0 || reference.empty()) {
      // Append a random-sized blob (may span multiple tiny blocks).
      const size_t len = 1 + rng.NextBelow(3000);
      std::string blob(len, static_cast<char>('a' + rng.NextBelow(26)));
      auto offset = (*file)->Append(blob);
      ASSERT_TRUE(offset.ok()) << op << ": " << offset.status();
      EXPECT_EQ(*offset, reference.size());
      reference += blob;
    } else {
      // Random read; compare with the reference.
      const uint64_t off = rng.NextBelow(reference.size());
      const size_t len = 1 + rng.NextBelow(4000);
      auto r = (*file)->Read(off, len);
      ASSERT_TRUE(r.ok()) << op << ": " << r.status();
      EXPECT_EQ(*r, reference.substr(off, len)) << "offset " << off;
    }
  }
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, reference.size());
  // Full-file read-back.
  auto all = (*file)->Read(0, reference.size());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, reference);
}

TEST_P(DsPropertyTest, QueueMatchesReferenceFifo) {
  auto cluster = SmallCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/q", {}).ok());
  auto q = client.OpenQueue("/job/q");
  ASSERT_TRUE(q.ok());

  Rng rng(GetParam() ^ 0x51edce);
  std::deque<std::string> reference;
  uint64_t counter = 0;
  for (int op = 0; op < 1500; ++op) {
    if (rng.NextBelow(5) < 3) {
      std::string item = std::to_string(counter++) + "-" +
                         std::string(rng.NextBelow(200), 'q');
      reference.push_back(item);
      ASSERT_TRUE((*q)->Enqueue(std::move(item)).ok()) << op;
    } else {
      auto item = (*q)->Dequeue();
      if (reference.empty()) {
        EXPECT_EQ(item.status().code(), StatusCode::kNotFound) << op;
      } else {
        ASSERT_TRUE(item.ok()) << op << ": " << item.status();
        EXPECT_EQ(*item, reference.front()) << op;
        reference.pop_front();
      }
    }
  }
  // Drain the remainder in order.
  while (!reference.empty()) {
    auto item = (*q)->Dequeue();
    ASSERT_TRUE(item.ok());
    EXPECT_EQ(*item, reference.front());
    reference.pop_front();
  }
  EXPECT_EQ((*q)->Dequeue().status().code(), StatusCode::kNotFound);
}

TEST_P(DsPropertyTest, KvMatchesReferenceMapUnderChurn) {
  auto cluster = SmallCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());

  Rng rng2(GetParam() * 31 + 7);
  std::map<std::string, std::string> reference;
  for (int op = 0; op < 2000; ++op) {
    const std::string key = "key" + std::to_string(rng2.NextBelow(400));
    const uint64_t action = rng2.NextBelow(10);
    if (action < 5) {
      std::string value(1 + rng2.NextBelow(120),
                        static_cast<char>('A' + rng2.NextBelow(26)));
      ASSERT_TRUE((*kv)->Put(key, value).ok()) << op;
      reference[key] = value;
    } else if (action < 8) {
      auto v = (*kv)->Get(key);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(v.status().code(), StatusCode::kNotFound) << op << " " << key;
      } else {
        ASSERT_TRUE(v.ok()) << op << " " << key << ": " << v.status();
        EXPECT_EQ(*v, it->second) << op << " " << key;
      }
    } else {
      Status st = (*kv)->Delete(key);
      if (reference.erase(key) > 0) {
        EXPECT_TRUE(st.ok()) << op << " " << key << ": " << st;
      } else {
        EXPECT_EQ(st.code(), StatusCode::kNotFound) << op << " " << key;
      }
    }
  }
  // Drain in-flight background merges: CountPairs would otherwise see a
  // migration's destination copies alongside the authoritative source.
  cluster->repartitioner()->WaitIdle();
  EXPECT_EQ(*(*kv)->CountPairs(), reference.size());
  for (const auto& [k, v] : reference) {
    auto got = (*kv)->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
}

TEST_P(DsPropertyTest, KvFlushLoadRoundTripPreservesEverything) {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 256;
  opts.config.block_size_bytes = 2048;
  opts.config.lease_duration = 1 * kSecond;
  SimClock clock;
  opts.clock = &clock;
  JiffyCluster cluster(opts);
  JiffyClient client(&cluster);
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  Rng rng(GetParam() + 99);
  std::map<std::string, std::string> reference;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(rng.NextBelow(300));
    std::string value(1 + rng.NextBelow(100), 'x');
    ASSERT_TRUE((*kv)->Put(key, value).ok());
    reference[key] = std::move(value);
  }
  // Quiesce background scaling first — expiry silently defers prefixes with
  // a migration in flight, and the flush must capture the final layout.
  cluster.repartitioner()->WaitIdle();
  // Let the lease lapse: data is flushed and reclaimed across many blocks.
  clock.AdvanceBy(2 * kSecond);
  ASSERT_EQ(cluster.controller_shard(0)->RunExpiryScan(), 1u);
  ASSERT_TRUE(client.LoadAddrPrefix("/job/kv", "jiffy/job/kv").ok());
  auto kv2 = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv2.ok());
  EXPECT_EQ(*(*kv2)->CountPairs(), reference.size());
  for (const auto& [k, v] : reference) {
    auto got = (*kv2)->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DsPropertyTest,
                         ::testing::Values(1, 7, 42, 1234, 987654));

// --- Lease policy unit coverage -------------------------------------------------

TEST(LeasePolicyTest, NoneRenewsOnlySelf) {
  JobHierarchy h("j", 0, kSecond, LeasePropagation::kNone);
  ASSERT_TRUE(h.CreateNode("a", {}, 0, 0).ok());
  ASSERT_TRUE(h.CreateNode("b", {"a"}, 0, 0).ok());
  ASSERT_TRUE(h.CreateNode("c", {"b"}, 0, 0).ok());
  auto renewed = h.RenewLease("b", 100);
  ASSERT_TRUE(renewed.ok());
  EXPECT_EQ((*renewed)->size(), 1u);
  EXPECT_EQ((*h.GetNode("a"))->lease_renewed_at, 0);
  EXPECT_EQ((*h.GetNode("b"))->lease_renewed_at, 100);
  EXPECT_EQ((*h.GetNode("c"))->lease_renewed_at, 0);
}

TEST(LeasePolicyTest, ParentsOnlySkipsDescendants) {
  JobHierarchy h("j", 0, kSecond, LeasePropagation::kParentsOnly);
  ASSERT_TRUE(h.CreateNode("a", {}, 0, 0).ok());
  ASSERT_TRUE(h.CreateNode("b", {"a"}, 0, 0).ok());
  ASSERT_TRUE(h.CreateNode("c", {"b"}, 0, 0).ok());
  auto renewed = h.RenewLease("b", 100);
  ASSERT_TRUE(renewed.ok());
  EXPECT_EQ((*renewed)->size(), 2u);
  EXPECT_EQ((*h.GetNode("a"))->lease_renewed_at, 100);
  EXPECT_EQ((*h.GetNode("c"))->lease_renewed_at, 0);
}

}  // namespace
}  // namespace jiffy
