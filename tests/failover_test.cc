// Controller fault tolerance (§4.2.1 primary-backup): snapshot/restore of
// the full control-plane state, and end-to-end failover — a standby
// controller restored from the primary's snapshot serves the same jobs
// against the same data plane.

#include <gtest/gtest.h>

#include "src/client/jiffy_client.h"
#include "src/common/serde.h"
#include "src/ds/kv_content.h"

namespace jiffy {
namespace {

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest() {
    JiffyCluster::Options opts;
    opts.config.num_memory_servers = 4;
    opts.config.blocks_per_server = 32;
    opts.config.block_size_bytes = 8 << 10;
    opts.config.lease_duration = 3600 * kSecond;
    cluster_ = std::make_unique<JiffyCluster>(opts);
    client_ = std::make_unique<JiffyClient>(cluster_.get());
  }

  // A standby controller sharing the primary's data plane (allocator,
  // hooks, backing store) — the §4.2.1 backup.
  std::unique_ptr<Controller> MakeStandby() {
    return std::make_unique<Controller>(cluster_->config(), cluster_->clock(),
                                        cluster_->allocator(), cluster_.get(),
                                        cluster_->backing());
  }

  std::unique_ptr<JiffyCluster> cluster_;
  std::unique_ptr<JiffyClient> client_;
};

TEST_F(FailoverTest, SnapshotRestoreRoundTripsState) {
  Controller* primary = cluster_->controller_shard(0);
  ASSERT_TRUE(primary->RegisterJob("job").ok());
  CreateOptions opts;
  opts.replication_factor = 2;
  opts.world_writable = false;
  opts.lease_duration = 5 * kSecond;
  ASSERT_TRUE(primary->CreateAddrPrefix("job", "map", {}, opts).ok());
  ASSERT_TRUE(primary->CreateAddrPrefix("job", "reduce", {"map"}).ok());
  ASSERT_TRUE(
      primary->InitDataStructure("job", "map", DsType::kKvStore, 16 << 10).ok());
  ASSERT_TRUE(primary->RenewLease("job", "map").ok());

  auto standby = MakeStandby();
  ASSERT_TRUE(standby->Restore(primary->Snapshot()).ok());

  // Hierarchy structure survives (DAG edges validated by path resolution).
  EXPECT_TRUE(standby->HasJob("job"));
  EXPECT_TRUE(standby->ValidatePath(*AddressPath::Parse("/job/map/reduce")).ok());
  EXPECT_FALSE(standby->ValidatePath(*AddressPath::Parse("/job/reduce/map")).ok());
  // Lease metadata survives.
  EXPECT_EQ(*standby->GetLeaseDuration("job", "map"), 5 * kSecond);
  // Partition map (blocks, ranges, replicas, version) survives bit-for-bit.
  auto pm_primary = primary->GetPartitionMap("job", "map");
  auto pm_standby = standby->GetPartitionMap("job", "map");
  ASSERT_TRUE(pm_primary.ok());
  ASSERT_TRUE(pm_standby.ok());
  EXPECT_EQ(pm_primary->version, pm_standby->version);
  ASSERT_EQ(pm_primary->entries.size(), pm_standby->entries.size());
  for (size_t i = 0; i < pm_primary->entries.size(); ++i) {
    EXPECT_EQ(pm_primary->entries[i].block, pm_standby->entries[i].block);
    EXPECT_EQ(pm_primary->entries[i].lo, pm_standby->entries[i].lo);
    EXPECT_EQ(pm_primary->entries[i].hi, pm_standby->entries[i].hi);
    EXPECT_EQ(pm_primary->entries[i].replicas, pm_standby->entries[i].replicas);
  }
  // Permissions survive.
  auto denied = standby->GetPartitionMapAs("intruder", "job", "map",
                                           /*for_write=*/true);
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  // Metadata accounting identical.
  EXPECT_EQ(*primary->JobMetadataBytes("job"), *standby->JobMetadataBytes("job"));
}

TEST_F(FailoverTest, RestoreRequiresFreshController) {
  Controller* primary = cluster_->controller_shard(0);
  ASSERT_TRUE(primary->RegisterJob("job").ok());
  const std::string snap = primary->Snapshot();
  EXPECT_EQ(primary->Restore(snap).code(), StatusCode::kFailedPrecondition);
}

TEST_F(FailoverTest, RestoreRejectsGarbage) {
  auto standby = MakeStandby();
  EXPECT_FALSE(standby->Restore("definitely-not-a-snapshot").ok());
}

TEST_F(FailoverTest, RestoreRejectsPreV3Header) {
  // A well-formed empty snapshot in the v2 layout (no applied-index stamp):
  // only v3 is ever written, so any other version is refused.
  std::string v2;
  PutU32(&v2, 2);
  PutU32(&v2, 0);
  auto standby = MakeStandby();
  EXPECT_EQ(standby->Restore(v2).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(standby->Restore(standby->Snapshot()).ok());
}

TEST_F(FailoverTest, PromotedStandbyServesLiveData) {
  // Write real data through the primary, snapshot, "crash" the primary,
  // and keep operating through the promoted standby: the data plane is
  // untouched, so all data remains readable and writable.
  Controller* primary = cluster_->controller_shard(0);
  ASSERT_TRUE(client_->RegisterJob("job").ok());
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), std::string(60, 'f')).ok());
  }
  // Let in-flight background splits publish before snapshotting the
  // control plane (in-flight migration state is not serialized).
  cluster_->repartitioner()->WaitIdle();
  const std::string snap = primary->Snapshot();

  auto standby = MakeStandby();
  ASSERT_TRUE(standby->Restore(snap).ok());
  // The promoted standby serves metadata: a fresh client resolves the map
  // and reads every key directly from the (unchanged) data plane.
  auto map = standby->GetPartitionMap("job", "kv");
  ASSERT_TRUE(map.ok());
  EXPECT_GT(map->entries.size(), 1u);  // Splits happened pre-failover.
  for (int i = 0; i < 300; i += 13) {
    bool found = false;
    for (const auto& entry : map->entries) {
      Block* block = cluster_->ResolveBlock(entry.block);
      ASSERT_NE(block, nullptr);
      Block::OpLock lock(*block);
      auto* shard = dynamic_cast<KvShard*>(block->content());
      if (shard != nullptr && shard->Get("k" + std::to_string(i)).ok()) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "k" << i;
  }
  // Control-plane mutations continue on the standby: grow the structure.
  auto added = standby->AddBlock("job", "kv", 0, 0);
  EXPECT_TRUE(added.ok()) << added.status();
  ASSERT_TRUE(standby->RemoveBlock("job", "kv", *added).ok());
  // Lease machinery continues: renewal + expiry bookkeeping work.
  EXPECT_TRUE(standby->RenewLease("job", "kv").ok());
  EXPECT_EQ(standby->RunExpiryScan(), 0u);
}

TEST_F(FailoverTest, SnapshotOfCustomAndExpiredState) {
  // Expired prefixes and custom-type metadata survive snapshots.
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 2;
  opts.config.blocks_per_server = 16;
  opts.config.block_size_bytes = 8 << 10;
  opts.config.lease_duration = 1 * kSecond;
  SimClock clock;
  opts.clock = &clock;
  JiffyCluster cluster(opts);
  Controller* primary = cluster.controller_shard(0);
  ASSERT_TRUE(primary->RegisterJob("j").ok());
  CreateOptions copts;
  copts.init_ds = true;
  ASSERT_TRUE(primary->CreateAddrPrefix("j", "t", {}, copts).ok());
  clock.AdvanceBy(2 * kSecond);
  ASSERT_EQ(primary->RunExpiryScan(), 1u);

  Controller standby(cluster.config(), &clock, cluster.allocator(), &cluster,
                     cluster.backing());
  ASSERT_TRUE(standby.Restore(primary->Snapshot()).ok());
  EXPECT_TRUE(*standby.IsExpired("j", "t"));
  // The standby can reload the flushed data, exactly like the primary.
  ASSERT_TRUE(standby.LoadAddrPrefix("j", "t", "jiffy/j/t").ok());
  EXPECT_FALSE(*standby.IsExpired("j", "t"));
}

}  // namespace
}  // namespace jiffy
