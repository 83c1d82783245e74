// Tests for the batched data plane (DESIGN.md §7): multi-op client APIs,
// per-block coalescing on the wire (RoundTripBatch accounting), per-item
// statuses, merged stale-metadata retries under concurrent repartitioning,
// replicated batches, and degenerate (empty/oversized) batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/client/jiffy_client.h"
#include "src/ds/kv_content.h"
#include "src/ds/queue_content.h"

namespace jiffy {
namespace {

class BatchOpsTest : public ::testing::Test {
 protected:
  explicit BatchOpsTest(size_t block_size = 4096) {
    JiffyCluster::Options opts;
    opts.config.num_memory_servers = 4;
    opts.config.blocks_per_server = 64;
    opts.config.block_size_bytes = block_size;
    opts.config.lease_duration = 3600 * kSecond;
    cluster_ = std::make_unique<JiffyCluster>(opts);
    client_ = std::make_unique<JiffyClient>(cluster_.get());
    EXPECT_TRUE(client_->RegisterJob("job").ok());
  }

  CreateOptions Replicated(uint32_t r) {
    CreateOptions opts;
    opts.replication_factor = r;
    return opts;
  }

  std::unique_ptr<JiffyCluster> cluster_;
  std::unique_ptr<JiffyClient> client_;
};

// Large blocks: no repartitioning noise, exact wire accounting.
class BatchOpsBigBlockTest : public BatchOpsTest {
 protected:
  BatchOpsBigBlockTest() : BatchOpsTest(1 << 20) {}
};

// --- KV ----------------------------------------------------------------------

TEST_F(BatchOpsBigBlockTest, MultiPutCoalescesToOneExchangePerBlock) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_EQ((*kv)->CachedMap().entries.size(), 1u);

  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 32; ++i) {
    pairs.emplace_back("k" + std::to_string(i), "v" + std::to_string(i));
  }
  Transport* net = cluster_->data_transport();
  const uint64_t rpcs0 = net->total_rpcs();
  const uint64_t ops0 = net->total_ops();
  for (const Status& st : (*kv)->MultiPut(pairs)) {
    EXPECT_TRUE(st.ok());
  }
  // One destination block → one coalesced exchange carrying all 32 ops.
  EXPECT_EQ(net->total_rpcs() - rpcs0, 1u);
  EXPECT_EQ(net->total_ops() - ops0, 32u);

  std::vector<std::string> keys;
  for (const auto& [k, v] : pairs) {
    (void)v;
    keys.push_back(k);
  }
  const uint64_t rpcs1 = net->total_rpcs();
  auto results = (*kv)->MultiGet(keys);
  EXPECT_EQ(net->total_rpcs() - rpcs1, 1u);
  ASSERT_EQ(results.size(), keys.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(*results[i], pairs[i].second);
  }
}

TEST_F(BatchOpsBigBlockTest, MultiGetReportsPerItemHitAndMiss) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE((*kv)->Put("present", "x").ok());
  auto results = (*kv)->MultiGet(std::vector<std::string_view>{"present", "absent", "present"});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0], "x");
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(results[2].ok());
}

TEST_F(BatchOpsBigBlockTest, MultiDeleteReportsPerItemStatus) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE((*kv)->Put("a", "1").ok());
  ASSERT_TRUE((*kv)->Put("b", "2").ok());
  auto statuses = (*kv)->MultiDelete(std::vector<std::string_view>{"a", "missing", "b"});
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(statuses[1].code(), StatusCode::kNotFound);
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ((*kv)->Get("a").status().code(), StatusCode::kNotFound);
}

TEST_F(BatchOpsTest, MultiPutSpansMultipleBlocks) {
  // 4 KiB blocks: enough pairs split the slot range across several blocks;
  // the batch must land every item regardless of how the map fragments.
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 300; ++i) {
    pairs.emplace_back("key" + std::to_string(i), std::string(32, 'v'));
  }
  for (const Status& st : (*kv)->MultiPut(pairs)) {
    ASSERT_TRUE(st.ok());
  }
  cluster_->repartitioner()->WaitIdle();
  ASSERT_TRUE((*kv)->RefreshMap().ok());
  EXPECT_GT((*kv)->CachedMap().entries.size(), 1u);
  auto results = (*kv)->MultiGet(std::vector<std::string_view>{"key0", "key150", "key299"});
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 32u);
  }
}

TEST_F(BatchOpsTest, MultiPutRacingConcurrentSplitNeverDropsAppliedItems) {
  // Writer A's cached map goes stale when writer B's traffic splits the
  // shard mid-run. The per-item retry merge must re-send ONLY displaced
  // items, and a status of Ok must mean the item is actually readable.
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv_a = client_->OpenKv("/job/kv");
  auto kv_b = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv_a.ok());
  ASSERT_TRUE(kv_b.ok());

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    int i = 0;
    while (!stop.load()) {
      (*kv_b)->Put("churn" + std::to_string(i++ % 512), std::string(64, 'c'));
    }
  });

  std::vector<std::pair<std::string, std::string>> pairs;
  for (int round = 0; round < 20; ++round) {
    pairs.clear();
    for (int i = 0; i < 64; ++i) {
      pairs.emplace_back("batch" + std::to_string(round) + "-" +
                             std::to_string(i),
                         "v" + std::to_string(round));
    }
    auto statuses = (*kv_a)->MultiPut(pairs);
    ASSERT_EQ(statuses.size(), pairs.size());
    for (size_t i = 0; i < statuses.size(); ++i) {
      ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
      // Success must imply the item was applied, split races included.
      auto got = (*kv_a)->Get(pairs[i].first);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, pairs[i].second);
    }
  }
  stop.store(true);
  churn.join();
}

TEST_F(BatchOpsBigBlockTest, ReplicatedMultiPutReachesAllReplicas) {
  ASSERT_TRUE(
      client_->CreateAddrPrefix("/job/kv", {}, Replicated(3)).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 16; ++i) {
    pairs.emplace_back("r" + std::to_string(i), "val" + std::to_string(i));
  }
  Transport* net = cluster_->data_transport();
  const uint64_t rpcs0 = net->total_rpcs();
  for (const Status& st : (*kv)->MultiPut(pairs)) {
    ASSERT_TRUE(st.ok());
  }
  // Primary exchange + one coalesced chain hop per replica.
  EXPECT_EQ(net->total_rpcs() - rpcs0, 3u);
  auto map = (*kv)->CachedMap();
  ASSERT_EQ(map.entries.size(), 1u);
  ASSERT_EQ(map.entries[0].replicas.size(), 2u);
  for (const BlockId& rid : map.entries[0].replicas) {
    Block* rb = cluster_->ResolveBlock(rid);
    ASSERT_NE(rb, nullptr);
    auto* shard = ContentAs<KvShard>(rb->content());
    ASSERT_NE(shard, nullptr);
    for (const auto& [k, v] : pairs) {
      EXPECT_EQ(*shard->Get(k), v);
    }
  }
}

TEST_F(BatchOpsBigBlockTest, EmptyBatchesAreNoOps) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/q", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  auto q = client_->OpenQueue("/job/q");
  Transport* net = cluster_->data_transport();
  const uint64_t rpcs0 = net->total_rpcs();
  EXPECT_TRUE((*kv)->MultiPut(std::vector<std::pair<std::string_view, std::string_view>>{}).empty());
  EXPECT_TRUE((*kv)->MultiGet(std::vector<std::string_view>{}).empty());
  EXPECT_TRUE((*kv)->MultiDelete(std::vector<std::string_view>{}).empty());
  EXPECT_TRUE((*q)->EnqueueBatch(std::vector<std::string_view>{}).ok());
  auto drained = (*q)->DequeueBatch(0);
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained->empty());
  EXPECT_EQ(net->total_rpcs() - rpcs0, 0u);
}

TEST_F(BatchOpsBigBlockTest, EmptyBatchesCountAsSuccesses) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  const obs::MetricsSnapshot before = cluster_->MetricsSnapshot();
  (*kv)->MultiPut(std::vector<std::pair<std::string_view, std::string_view>>{});
  (*kv)->MultiDelete(std::vector<std::string_view>{});
  (*kv)->MultiGetPinned({});
  const obs::MetricsSnapshot after = cluster_->MetricsSnapshot();
  EXPECT_EQ(after.SumCounters("client.ops_total") -
                before.SumCounters("client.ops_total"),
            3u);
  EXPECT_EQ(after.SumCounters("client.op_errors_total") -
                before.SumCounters("client.op_errors_total"),
            0u);
}

// The slot index routes each slot to the first map entry owning it, however
// the entries are ordered or overlap: with the true entries reversed and a
// bogus entry owning every slot appended after them, every op must reach
// its true block without a refresh (a refresh would replace the 5-entry map
// with the controller's 4 entries). A slot that no entry owns still
// refreshes the map.
TEST_F(BatchOpsBigBlockTest, SlotIndexRoutesToFirstOwningEntry) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto opened = client_->OpenKv("/job/kv", 4 << 20);
  ASSERT_TRUE(opened.ok());
  const PartitionMap truth = (*opened)->CachedMap();
  ASSERT_EQ(truth.entries.size(), 4u);

  PartitionMap overlapping = truth;
  std::reverse(overlapping.entries.begin(), overlapping.entries.end());
  PartitionEntry bogus = truth.entries.front();
  bogus.lo = 0;
  bogus.hi = cluster_->config().kv_hash_slots;
  overlapping.entries.push_back(bogus);
  KvClient kv(cluster_.get(), "job", "kv", overlapping);
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("k" + std::to_string(i));
    pairs.emplace_back(keys.back(), "v" + std::to_string(i));
  }
  for (const Status& st : kv.MultiPut(pairs)) {
    EXPECT_TRUE(st.ok()) << st;
  }
  EXPECT_TRUE(kv.Put("single", "s").ok());
  const WireValues got = kv.MultiGet(keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << keys[i];
    EXPECT_EQ(*got[i], pairs[i].second);
  }
  EXPECT_EQ(*kv.Get("single"), "s");
  EXPECT_EQ(kv.CachedMap().entries.size(), 5u);  // Never refreshed.

  // Drop the entry owning "single"'s slot: routing it refreshes the map.
  PartitionMap holed = truth;
  const uint32_t slot = KvSlotOf("single", cluster_->config().kv_hash_slots);
  std::erase_if(holed.entries, [slot](const PartitionEntry& e) {
    return slot >= e.lo && slot < e.hi;
  });
  ASSERT_EQ(holed.entries.size(), 3u);
  KvClient stale(cluster_.get(), "job", "kv", holed);
  EXPECT_EQ(*stale.Get("single"), "s");
  EXPECT_EQ(stale.CachedMap().entries.size(), 4u);
}

// Pins the exchanges every KV op issues: a fixed sequence of single-key and
// batched ops on four unsplit blocks must move exactly these data-plane
// RPCs, operations and bytes. SimClock and hour-long leases keep lease and
// clock effects out; a low threshold of 0 keeps deletes from flagging
// merges, and 64 KiB blocks stay far below the split threshold.
struct ExchangeCount {
  uint64_t rpcs;
  uint64_t ops;
  uint64_t bytes;
};

ExchangeCount RunAccountingSequence(uint32_t replication_factor) {
  SimClock clock;
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 64;
  opts.config.block_size_bytes = 64 << 10;
  opts.config.lease_duration = 3600 * kSecond;
  opts.config.repartition_low_threshold = 0.0;
  opts.clock = &clock;
  JiffyCluster cluster(opts);
  JiffyClient client(&cluster);
  EXPECT_TRUE(client.RegisterJob("job").ok());
  CreateOptions create;
  create.replication_factor = replication_factor;
  EXPECT_TRUE(client.CreateAddrPrefix("/job/kv", {}, create).ok());
  auto kv_r = client.OpenKv("/job/kv", 4 * (64 << 10));
  EXPECT_TRUE(kv_r.ok());
  KvClient* kv = kv_r->get();
  EXPECT_EQ(kv->CachedMap().entries.size(), 4u);

  Transport* net = cluster.data_transport();
  const ExchangeCount base{net->total_rpcs(), net->total_ops(),
                           net->total_bytes()};
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        kv->Put("k" + std::to_string(i), std::string(10 + i, 'v')).ok());
  }
  for (int i = 0; i < 45; ++i) {
    EXPECT_EQ(kv->Get("k" + std::to_string(i)).ok(), i < 40);
  }
  const KvClient::MergeFn concat = [](std::string_view old_value,
                                      std::string_view update) {
    return std::string(old_value) + std::string(update);
  };
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(kv->Accumulate("k" + std::to_string(i), "+", concat).ok());
  }
  for (int i = 30; i < 35; ++i) {
    EXPECT_TRUE(kv->Delete("k" + std::to_string(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 100; i < 164; ++i) {
    pairs.emplace_back("m" + std::to_string(i), std::string(i % 37, 'm'));
  }
  for (const Status& st : kv->MultiPut(pairs)) {
    EXPECT_TRUE(st.ok()) << st;
  }
  std::vector<std::string> reads;
  for (int i = 90; i < 170; ++i) {
    reads.push_back("m" + std::to_string(i));
  }
  const WireValues got = kv->MultiGet(reads);
  for (size_t j = 0; j < reads.size(); ++j) {
    EXPECT_EQ(got[j].ok(), j >= 10 && j < 74) << reads[j];
  }
  std::vector<std::string> dels(reads.begin() + 10, reads.begin() + 26);
  for (const Status& st : kv->MultiDelete(dels)) {
    EXPECT_TRUE(st.ok()) << st;
  }
  cluster.repartitioner()->WaitIdle();
  return {net->total_rpcs() - base.rpcs, net->total_ops() - base.ops,
          net->total_bytes() - base.bytes};
}

TEST(KvExchangeAccountingTest, UnreplicatedSequenceIssuesFixedExchanges) {
  const ExchangeCount c = RunAccountingSequence(1);
  EXPECT_EQ(c.rpcs, 107u);
  EXPECT_EQ(c.ops, 255u);
  EXPECT_EQ(c.bytes, 21765u);
}

TEST(KvExchangeAccountingTest, ChainSequenceIssuesFixedExchanges) {
  const ExchangeCount c = RunAccountingSequence(2);
  EXPECT_EQ(c.rpcs, 165u);
  EXPECT_EQ(c.ops, 385u);
  EXPECT_EQ(c.bytes, 32016u);
}

// --- Queue -------------------------------------------------------------------

TEST_F(BatchOpsTest, EnqueueBatchSpansSegmentsAndDequeueBatchKeepsFifo) {
  // 4 KiB segments force the batch to grow the tail mid-way; the suffix
  // (not the whole batch) must move to the new segment, preserving order.
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/q", {}).ok());
  auto q = client_->OpenQueue("/job/q");
  ASSERT_TRUE(q.ok());
  std::vector<std::string> items;
  for (int i = 0; i < 200; ++i) {
    items.push_back("item" + std::to_string(i) + std::string(48, 'x'));
  }
  ASSERT_TRUE((*q)->EnqueueBatch(items).ok());
  EXPECT_GT((*q)->CachedMap().entries.size(), 1u);

  std::vector<std::string> out;
  while (out.size() < items.size()) {
    auto batch = (*q)->DequeueBatch(64);
    ASSERT_TRUE(batch.ok());
    ASSERT_FALSE(batch->empty()) << "queue drained early at " << out.size();
    for (auto& item : *batch) {
      out.push_back(std::move(item));
    }
  }
  EXPECT_EQ(out, items);
  auto empty = (*q)->DequeueBatch(8);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(BatchOpsBigBlockTest, EnqueueBatchCoalescesAndRespectsBound) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/q", {}).ok());
  auto q = client_->OpenQueue("/job/q");
  (*q)->SetMaxQueueLength(10);
  // Oversized vs the bound: rejected up front, queue untouched.
  std::vector<std::string> too_many(11, "x");
  EXPECT_EQ((*q)->EnqueueBatch(too_many).code(), StatusCode::kUnavailable);
  EXPECT_EQ((*q)->ApproxSize(), 0);

  Transport* net = cluster_->data_transport();
  const uint64_t rpcs0 = net->total_rpcs();
  const uint64_t ops0 = net->total_ops();
  std::vector<std::string> ten(10, "y");
  ASSERT_TRUE((*q)->EnqueueBatch(ten).ok());
  EXPECT_EQ(net->total_rpcs() - rpcs0, 1u);
  EXPECT_EQ(net->total_ops() - ops0, 10u);
  EXPECT_EQ((*q)->ApproxSize(), 10);
}

TEST_F(BatchOpsBigBlockTest, ReplicatedQueueBatchesStayInSync) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/q", {}, Replicated(2)).ok());
  auto q = client_->OpenQueue("/job/q");
  ASSERT_TRUE(q.ok());
  std::vector<std::string> items;
  for (int i = 0; i < 24; ++i) {
    items.push_back("it" + std::to_string(i));
  }
  ASSERT_TRUE((*q)->EnqueueBatch(items).ok());
  auto map = (*q)->CachedMap();
  ASSERT_EQ(map.entries[0].replicas.size(), 1u);
  {
    Block* rb = cluster_->ResolveBlock(map.entries[0].replicas[0]);
    ASSERT_NE(rb, nullptr);
    auto* seg = ContentAs<QueueSegment>(rb->content());
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->item_count(), items.size());
  }
  auto half = (*q)->DequeueBatch(12);
  ASSERT_TRUE(half.ok());
  ASSERT_EQ(half->size(), 12u);
  {
    Block* rb = cluster_->ResolveBlock(map.entries[0].replicas[0]);
    auto* seg = ContentAs<QueueSegment>(rb->content());
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->item_count(), items.size() - 12);
  }
}

// --- File --------------------------------------------------------------------

TEST_F(BatchOpsTest, AppendVecSpansChunksAndReadVecStitches) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/f", {}).ok());
  auto file = client_->OpenFile("/job/f");
  ASSERT_TRUE(file.ok());
  std::vector<std::string> pieces;
  std::string expect;
  for (int i = 0; i < 40; ++i) {
    pieces.push_back(std::string(200, static_cast<char>('a' + i % 26)));
    expect += pieces.back();
  }
  std::vector<std::string_view> views(pieces.begin(), pieces.end());
  auto off = (*file)->AppendVec(views);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*off, 0u);
  // 40 × 200 B ≫ one 4 KiB chunk: the scatter list crossed chunks.
  EXPECT_GT((*file)->CachedMap().entries.size(), 1u);
  auto whole = (*file)->Read(0, expect.size());
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*whole, expect);

  auto parts = (*file)->ReadVec(
      {{0, 100}, {3500, 1000}, {expect.size() - 10, 100}, {expect.size() + 5000, 7}});
  ASSERT_EQ(parts.size(), 4u);
  ASSERT_TRUE(parts[0].ok());
  EXPECT_EQ(*parts[0], expect.substr(0, 100));
  ASSERT_TRUE(parts[1].ok());
  EXPECT_EQ(*parts[1], expect.substr(3500, 1000));
  ASSERT_TRUE(parts[2].ok());
  EXPECT_EQ(*parts[2], expect.substr(expect.size() - 10));  // Short at EOF.
  ASSERT_TRUE(parts[3].ok());
  EXPECT_TRUE(parts[3]->empty());  // Entirely past EOF.
}

TEST_F(BatchOpsBigBlockTest, AppendVecEmptyAndReadVecCoalesce) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/f", {}).ok());
  auto file = client_->OpenFile("/job/f");
  auto off = (*file)->AppendVec({});
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE((*file)->AppendVec({"hello ", "", "world"}).ok());
  Transport* net = cluster_->data_transport();
  const uint64_t rpcs0 = net->total_rpcs();
  auto parts = (*file)->ReadVec({{0, 5}, {6, 5}});
  EXPECT_EQ(net->total_rpcs() - rpcs0, 1u);  // Same chunk → one exchange.
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(*parts[0], "hello");
  EXPECT_EQ(*parts[1], "world");
}

}  // namespace
}  // namespace jiffy
