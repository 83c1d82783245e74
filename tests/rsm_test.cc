// Replicated control plane (DESIGN.md §14): leader election, quorum commit,
// the controller-crash-at-every-point matrix, read-lease linearizability
// with a partitioned leader, leader-local lease renewals across failover,
// exactly-once Cas across failover, and snapshot-as-log-compaction
// catch-up.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/client/jiffy_client.h"
#include "src/rsm/group.h"

namespace jiffy {
namespace {

std::unique_ptr<JiffyCluster> MakeReplicated(uint32_t replicas,
                                             Clock* clock = nullptr,
                                             uint64_t snap_threshold = 512) {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 32;
  opts.config.block_size_bytes = 16 << 10;
  opts.config.controller_shards = 1;
  opts.config.controller_replicas = replicas;
  opts.config.rsm_snapshot_threshold = snap_threshold;
  if (clock != nullptr) {
    opts.clock = clock;
  }
  return std::make_unique<JiffyCluster>(opts);
}

// Creates /job/{a,b,c} with a KV under /job/a and returns the cluster.
void SeedJob(JiffyClient* client) {
  ASSERT_TRUE(client->RegisterJob("job").ok());
  ASSERT_TRUE(client
                  ->CreateHierarchy("job", {{"a", {}}, {"b", {"a"}},
                                            {"c", {"a"}}})
                  .ok());
  auto kv = client->OpenKv("/job/a");
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
}

int LeaderIndex(JiffyCluster* cluster) {
  rsm::ControllerGroup* group = cluster->controller_group(0);
  // Force an election if none happened yet.
  group->LeaderController();
  return group->leader_index();
}

TEST(RsmTest, UnreplicatedClusterHasNoGroup) {
  auto cluster = MakeReplicated(1);
  EXPECT_EQ(cluster->controller_group(0), nullptr);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  EXPECT_TRUE(client.RenewLease("/job/a").ok());
}

TEST(RsmTest, ElectsLeaderAndServesMetadataOps) {
  auto cluster = MakeReplicated(3);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->QuorumSize(), 2);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  const int leader = LeaderIndex(cluster.get());
  ASSERT_GE(leader, 0);
  // Exactly one replica is materialized and leading.
  int leaders = 0;
  for (int i = 0; i < group->size(); ++i) {
    leaders += group->replica(i)->is_leader() ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
  // The log committed the seed mutations on every replica.
  for (int i = 0; i < group->size(); ++i) {
    EXPECT_GT(group->replica(i)->last_index(), 0u) << "replica " << i;
  }
  EXPECT_TRUE(client.RenewLease("/job/b").ok());
  EXPECT_TRUE(client.GetLeaseDuration("/job/a").ok());
}

TEST(RsmTest, LeaderCrashLosesNoCommittedMutations) {
  auto cluster = MakeReplicated(3);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  ASSERT_TRUE(client.RenewLease("/job/a").ok());  // Memoize a renewal plan.
  const int old_leader = LeaderIndex(cluster.get());
  group->Crash(old_leader);
  // The client rides through the failover: lookups and mutations against
  // the promoted replica see every committed prefix.
  EXPECT_TRUE(client.GetLeaseDuration("/job/a").ok());
  EXPECT_TRUE(client.GetLeaseDuration("/job/c").ok());
  // Satellite check: the renewal plan memoized on the old leader must not
  // leak into the promoted hierarchy (plans are invalidated on promotion).
  EXPECT_TRUE(client.RenewLease("/job/a").ok());
  EXPECT_TRUE(client.CreateAddrPrefix("/job/d", {"a"}).ok());
  const int new_leader = LeaderIndex(cluster.get());
  EXPECT_NE(new_leader, old_leader);
  // The crashed replica rejoins as a follower and catches up.
  group->Restart(old_leader);
  EXPECT_TRUE(client.CreateAddrPrefix("/job/e", {"a"}).ok());
  EXPECT_EQ(group->replica(old_leader)->last_index(),
            group->replica(new_leader)->last_index());
}

// A deregistered job's last logged blob is empty ("job dropped"). Caching
// it would keep a map node and the old blob's buffer per finished job for
// the life of the leader; the leader caches nothing for it instead.
TEST(RsmTest, DeregisteredJobsLeaveNoBlobCacheEntry) {
  auto cluster = MakeReplicated(3);
  JiffyClient client(cluster.get());
  for (int i = 0; i < 200; ++i) {
    const std::string job = "job" + std::to_string(i);
    const std::string path = "/" + job + "/kv";
    ASSERT_TRUE(client.RegisterJob(job).ok()) << job;
    ASSERT_TRUE(client.CreateAddrPrefix(path, {}).ok()) << job;
    {
      auto kv = client.OpenKv(path);
      ASSERT_TRUE(kv.ok()) << kv.status().ToString();
      ASSERT_TRUE((*kv)->Put("key", "value").ok()) << job;
    }
    ASSERT_TRUE(client.RenewLease(path).ok()) << job;
    ASSERT_TRUE(client.DeregisterJob(job).ok()) << job;
  }
  rsm::ControllerGroup* group = cluster->controller_group(0);
  EXPECT_EQ(group->replica(LeaderIndex(cluster.get()))->blob_cache_size(),
            0u);
}

// The tentpole matrix: kill a replica at every point of the commit
// protocol and verify no committed lease/DAG mutation is ever lost and no
// uncommitted one ever resurfaces without being re-applied.
TEST(RsmFaultMatrixTest, ControllerCrashAtEveryPoint) {
  const struct {
    rsm::CrashPoint point;
    bool crash_leader;  // false = arm a follower instead
    const char* name;
  } kCases[] = {
      {rsm::CrashPoint::kLeaderAfterAppend, true, "leader-after-append"},
      {rsm::CrashPoint::kLeaderAfterReplicate, true,
       "leader-after-replicate"},
      {rsm::CrashPoint::kLeaderAfterCommit, true, "leader-after-commit"},
      {rsm::CrashPoint::kFollowerBeforeAppend, false,
       "follower-before-append"},
      {rsm::CrashPoint::kFollowerAfterAppend, false,
       "follower-after-append"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    auto cluster = MakeReplicated(3);
    rsm::ControllerGroup* group = cluster->controller_group(0);
    JiffyClient client(cluster.get());
    SeedJob(&client);
    ASSERT_TRUE(client.CreateAddrPrefix("/job/committed", {"a"}).ok());
    const int leader = LeaderIndex(cluster.get());
    ASSERT_GE(leader, 0);
    const int victim = c.crash_leader ? leader : (leader + 1) % 3;
    group->ArmCrash(victim, c.point);
    // The client's retry layer masks the crash: by the time this returns,
    // a (possibly new) leader has applied the mutation exactly once.
    Status st = client.CreateAddrPrefix("/job/target", {"a"});
    EXPECT_TRUE(st.ok() || st.code() == StatusCode::kAlreadyExists)
        << st.ToString();
    // Invariant 1: the earlier committed mutation is never lost.
    EXPECT_TRUE(client.GetLeaseDuration("/job/committed").ok());
    // Invariant 2: the targeted mutation is now visible exactly once —
    // creating it again must report AlreadyExists, not succeed.
    EXPECT_EQ(client.CreateAddrPrefix("/job/target", {"a"}).code(),
              StatusCode::kAlreadyExists);
    // The victim restarts, rejoins, and the group keeps serving.
    group->Restart(victim);
    EXPECT_TRUE(client.CreateAddrPrefix("/job/after", {"a"}).ok());
    const int final_leader = group->leader_index();
    ASSERT_GE(final_leader, 0);
    for (int i = 0; i < group->size(); ++i) {
      EXPECT_EQ(group->replica(i)->last_index(),
                group->replica(final_leader)->last_index())
          << "replica " << i << " diverged";
    }
  }
}

TEST(RsmFaultMatrixTest, ExactlyOnceCasAcrossFailover) {
  auto cluster = MakeReplicated(3);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  // Crash the leader after the Cas quorum-committed but before the client
  // heard back — the worst case for at-most-once.
  group->ArmCrash(LeaderIndex(cluster.get()),
                  rsm::CrashPoint::kLeaderAfterCommit);
  auto first = client.Cas("/job/a", "owner", "", "worker-1");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The retry that rode through the failover must observe the original
  // outcome (applied), not a kFailedPrecondition replay artifact.
  EXPECT_TRUE(first->applied);
  EXPECT_EQ(first->previous, "");
  // The swap happened exactly once: a competing Cas sees the new value.
  auto second = client.Cas("/job/a", "owner", "", "worker-2");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second->applied);
  EXPECT_EQ(second->previous, "worker-1");
  // And a correctly-conditioned Cas still works on the promoted leader.
  auto third = client.Cas("/job/a", "owner", "worker-1", "worker-2");
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->applied);
}

TEST(RsmFaultMatrixTest, PartitionedLeaderReadLeaseStaysLinearizable) {
  SimClock clock(1 * kSecond);
  auto cluster = MakeReplicated(3, &clock);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  const int old_leader = LeaderIndex(cluster.get());
  rsm::Replica* old_rep = group->replica(old_leader);
  ASSERT_TRUE(old_rep->MayServeReads());
  const JiffyConfig& cfg = cluster->config();
  // Partition (don't crash) the leader: it may keep serving leased local
  // reads until its lease lapses.
  group->Partition(old_leader);
  EXPECT_TRUE(old_rep->MayServeReads());
  // Electing a new leader must NOT let it serve reads while the old
  // leader's lease could still be live — that window is where a stale read
  // could violate linearizability.
  ASSERT_TRUE(group->EnsureLeader().ok());
  const int new_leader = group->leader_index();
  ASSERT_GE(new_leader, 0);
  ASSERT_NE(new_leader, old_leader);
  EXPECT_FALSE(group->replica(new_leader)->MayServeReads());
  // Once the old lease has provably lapsed, both sides flip: the old
  // leader stops answering, the new one starts.
  clock.AdvanceBy(cfg.rsm_read_lease + 1);
  EXPECT_FALSE(old_rep->MayServeReads());
  // A fresh lookup heartbeats the new leader (refreshing its own lease)
  // and then serves locally.
  EXPECT_TRUE(client.GetLeaseDuration("/job/a").ok());
  EXPECT_TRUE(group->replica(new_leader)->MayServeReads());
  // The healed old leader rejoins as a follower.
  group->Heal();
  EXPECT_TRUE(client.CreateAddrPrefix("/job/d", {"a"}).ok());
  EXPECT_FALSE(old_rep->is_leader());
}

TEST(RsmFaultMatrixTest, TwoElectionsBackToBack) {
  auto cluster = MakeReplicated(5);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  const int first = LeaderIndex(cluster.get());
  group->Crash(first);
  EXPECT_TRUE(client.CreateAddrPrefix("/job/x", {"a"}).ok());
  const int second = group->leader_index();
  ASSERT_GE(second, 0);
  ASSERT_NE(second, first);
  group->Crash(second);
  // 3 of 5 alive: still a quorum; a third leader picks up both epochs'
  // committed state.
  EXPECT_TRUE(client.GetLeaseDuration("/job/x").ok());
  EXPECT_TRUE(client.CreateAddrPrefix("/job/y", {"x"}).ok());
  const int third = group->leader_index();
  ASSERT_GE(third, 0);
  EXPECT_NE(third, first);
  EXPECT_NE(third, second);
  group->Restart(first);
  group->Restart(second);
  EXPECT_TRUE(client.CreateAddrPrefix("/job/z", {"y"}).ok());
  for (int i = 0; i < group->size(); ++i) {
    EXPECT_EQ(group->replica(i)->last_index(),
              group->replica(third)->last_index());
  }
}

TEST(RsmFaultMatrixTest, NoQuorumFailsCleanAndRecovers) {
  auto cluster = MakeReplicated(3);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  const int leader = LeaderIndex(cluster.get());
  group->Crash(leader);
  group->Crash((leader + 1) % 3);
  // One survivor: every mutation and lookup reports kUnavailable rather
  // than serving possibly-stale metadata.
  EXPECT_EQ(client.CreateAddrPrefix("/job/x", {"a"}).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(client.GetLeaseDuration("/job/a").status().code(),
            StatusCode::kUnavailable);
  // Restarting one replica restores a quorum; nothing committed was lost
  // and the refused mutation was never half-applied.
  group->Restart(leader);
  EXPECT_TRUE(client.GetLeaseDuration("/job/a").ok());
  EXPECT_TRUE(client.CreateAddrPrefix("/job/x", {"a"}).ok());
}

// Renewals are served leader-local and never logged. A renewal accepted by
// a partitioned leader is lost with it; the promoted leader restarts every
// lease where its own reads begin, so the lost renewal only delays
// reclamation and never makes the data reclaimable sooner.
TEST(RsmLeaseTest, RenewalOnDeposedLeaderOnlyDelaysReclamation) {
  SimClock clock(1 * kSecond);
  auto cluster = MakeReplicated(3, &clock);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  const JiffyConfig& cfg = cluster->config();
  const int a = LeaderIndex(cluster.get());
  rsm::Replica* rep_a = group->replica(a);
  const uint64_t logged = rep_a->last_index();
  ASSERT_TRUE(client.RenewLease("/job/a").ok());
  EXPECT_EQ(rep_a->last_index(), logged);
  // A still holds its read lease while cut off, so it accepts one more
  // renewal that no other replica ever learns of.
  group->Partition(a);
  clock.AdvanceBy(cfg.rsm_read_lease / 4);
  const TimeNs renewed_at = clock.Now();
  ASSERT_TRUE(rep_a->controller()->RenewLease("job", "a").ok());
  ASSERT_TRUE(group->EnsureLeader().ok());
  const int b = group->leader_index();
  ASSERT_GE(b, 0);
  ASSERT_NE(b, a);
  Controller* ctl_b = group->replica(b)->controller();
  // Past the lost renewal's own deadline the prefix is still in memory...
  clock.AdvanceTo(renewed_at + cfg.lease_duration + cfg.rsm_read_lease / 2);
  EXPECT_EQ(rep_a->controller()->RenewLease("job", "a").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(ctl_b->RunExpiryScan(), 0u);
  auto expired = ctl_b->IsExpired("job", "a");
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_FALSE(*expired);
  // ...and once nobody renews, it is reclaimed after all.
  clock.AdvanceBy(cfg.lease_duration + 2 * cfg.rsm_read_lease);
  EXPECT_GT(ctl_b->RunExpiryScan(), 0u);
  expired = ctl_b->IsExpired("job", "a");
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_TRUE(*expired);
}

// A replica demoted in the middle of a call has dropped its jobs. It must
// answer like any other non-leader, so the client re-resolves the leader
// instead of reporting a registered job as missing.
TEST(RsmLeaseTest, DemotedReplicaAnswersUnavailableNotNotFound) {
  auto cluster = MakeReplicated(3);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  const int old_leader = LeaderIndex(cluster.get());
  Controller* deposed = group->replica(old_leader)->controller();
  group->Crash(old_leader);
  EXPECT_EQ(deposed->IsExpired("job", "a").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(deposed->RenewLease("job", "a").status().code(),
            StatusCode::kUnavailable);
  // The promoted leader still tells a genuinely unknown job apart.
  Controller* promoted = group->LeaderController();
  ASSERT_NE(promoted, deposed);
  EXPECT_TRUE(promoted->RenewLease("job", "a").ok());
  EXPECT_EQ(promoted->RenewLease("nojob", "a").status().code(),
            StatusCode::kNotFound);
}

TEST(RsmSnapshotTest, CompactionInstallsAndFollowerCatchesUp) {
  // Tiny threshold: compaction triggers during normal traffic.
  auto cluster = MakeReplicated(3, nullptr, /*snap_threshold=*/8);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  const int leader = LeaderIndex(cluster.get());
  const int lagging = (leader + 1) % 3;
  group->Crash(lagging);
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(client
                    .CreateAddrPrefix("/job/n" + std::to_string(i), {"a"})
                    .ok());
  }
  // The log compacted well below the mutation count.
  rsm::Replica* lead = group->replica(group->leader_index());
  EXPECT_LT(lead->last_index() - lead->commit_index(), 1u);
  // The restarted replica is far behind the compacted prefix: it can only
  // catch up through InstallSnapshot.
  group->Restart(lagging);
  ASSERT_TRUE(client.CreateAddrPrefix("/job/final", {"a"}).ok());
  EXPECT_EQ(group->replica(lagging)->last_index(), lead->last_index());
  // Prove the snapshot carried real state: crash everyone but the
  // once-lagging replica's quorum partner and promote it.
  group->Crash(group->leader_index());
  EXPECT_TRUE(client.GetLeaseDuration("/job/n0").ok());
  EXPECT_TRUE(client.GetLeaseDuration("/job/n23").ok());
  EXPECT_TRUE(client.GetLeaseDuration("/job/final").ok());
}

TEST(RsmSnapshotTest, CrashDuringSnapshotInstall) {
  auto cluster = MakeReplicated(3);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  const int leader = LeaderIndex(cluster.get());
  const int victim = (leader + 1) % 3;
  group->ArmCrash(victim, rsm::CrashPoint::kFollowerDuringSnapshotInstall);
  // Forced compaction pushes InstallSnapshot at the armed follower, which
  // dies mid-install; the snapshot must not be half-applied.
  ASSERT_TRUE(group->CompactNow().ok());
  EXPECT_TRUE(group->replica(victim)->crashed());
  // The group keeps committing on the surviving quorum.
  EXPECT_TRUE(client.CreateAddrPrefix("/job/x", {"a"}).ok());
  // The victim restarts with nothing of the discarded snapshot and is
  // re-synced (snapshot again + suffix).
  group->Restart(victim);
  EXPECT_TRUE(client.CreateAddrPrefix("/job/y", {"a"}).ok());
  EXPECT_EQ(group->replica(victim)->last_index(),
            group->replica(group->leader_index())->last_index());
  // Failover onto the re-synced replica: full state present.
  group->Crash(group->leader_index());
  EXPECT_TRUE(client.GetLeaseDuration("/job/x").ok());
  EXPECT_TRUE(client.GetLeaseDuration("/job/y").ok());
}

TEST(RsmSnapshotTest, SnapshotStampsAppliedIndex) {
  auto cluster = MakeReplicated(3);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  Controller* leader = group->LeaderController();
  rsm::Replica* rep = group->replica(group->leader_index());
  const std::string snap = leader->Snapshot(rep->commit_index());
  EXPECT_EQ(Controller::SnapshotAppliedIndex(snap), rep->commit_index());
  EXPECT_GT(rep->commit_index(), 0u);
  // The plain overload stamps 0 ("no log attached") but stays restorable.
  const std::string plain = leader->Snapshot();
  EXPECT_EQ(Controller::SnapshotAppliedIndex(plain), 0u);
}

TEST(RsmMigrationTest, MigrationBracketSurvivesFailover) {
  auto cluster = MakeReplicated(3);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  Controller* leader = group->LeaderController();
  auto map = leader->GetPartitionMap("job", "a");
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->entries.size(), 1u);
  const BlockId src = map->entries[0].block;
  const uint64_t lo = map->entries[0].lo;
  const uint64_t hi = map->entries[0].hi;
  const uint64_t mid = (lo + hi) / 2;
  // A repartitioner-style split: bracket the source, allocate the
  // destination, then lose the leader before the commit.
  ASSERT_TRUE(leader->BeginMigration("job", "a", src).ok());
  auto dest = leader->AllocateUnmapped("job", "a", mid, hi);
  ASSERT_TRUE(dest.ok()) << dest.status().ToString();
  const int old_leader = group->leader_index();
  group->Crash(old_leader);
  // The promoted leader preserved the bracket (snapshot v3 serializes
  // `migrating`), so a commit that requires it still goes through — this
  // is the repartitioner re-resolving the controller after failover.
  Controller* promoted = group->LeaderController();
  ASSERT_NE(promoted, leader);
  PartitionEntry new_entry;
  new_entry.block = *dest;
  new_entry.lo = mid;
  new_entry.hi = hi;
  ASSERT_TRUE(
      promoted->CommitSplit("job", "a", src, lo, mid, new_entry).ok());
  auto after = promoted->GetPartitionMap("job", "a");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->entries.size(), 2u);
  for (const auto& e : after->entries) {
    EXPECT_FALSE(e.migrating);
  }
}

TEST(RsmMigrationTest, AbortAfterFailoverClearsBracket) {
  auto cluster = MakeReplicated(3);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  Controller* leader = group->LeaderController();
  auto map = leader->GetPartitionMap("job", "a");
  ASSERT_TRUE(map.ok());
  const BlockId src = map->entries[0].block;
  ASSERT_TRUE(leader->BeginMigration("job", "a", src).ok());
  group->Crash(group->leader_index());
  // Post-failover abort path: EndMigration against the new leader clears
  // the bracket instead of leaving `migrating` stuck forever (which would
  // wedge lease expiry for the prefix).
  Controller* promoted = group->LeaderController();
  ASSERT_TRUE(promoted->EndMigration("job", "a", src).ok());
  auto after = promoted->GetPartitionMap("job", "a");
  ASSERT_TRUE(after.ok());
  for (const auto& e : after->entries) {
    EXPECT_FALSE(e.migrating);
  }
  // A fresh migration bracket can now be taken.
  EXPECT_TRUE(promoted->BeginMigration("job", "a", src).ok());
  EXPECT_TRUE(promoted->EndMigration("job", "a", src).ok());
}

TEST(RsmMigrationTest, ColdRestoreClearsBracketByDefault) {
  // Single-controller standby restore (pre-§14 path): the old
  // repartitioner is gone with the old process, so `migrating` must NOT
  // survive — the source still holds all data and expiry must not stay
  // deferred forever.
  auto cluster = MakeReplicated(1);
  JiffyClient client(cluster.get());
  SeedJob(&client);
  Controller* ctl = cluster->controller_shard(0);
  auto map = ctl->GetPartitionMap("job", "a");
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(ctl->BeginMigration("job", "a", map->entries[0].block).ok());
  const std::string snap = ctl->Snapshot();
  Controller standby(cluster->config(), cluster->clock(),
                     cluster->allocator(), cluster.get(),
                     cluster->backing());
  ASSERT_TRUE(standby.Restore(snap).ok());
  auto restored = standby.GetPartitionMap("job", "a");
  ASSERT_TRUE(restored.ok());
  for (const auto& e : restored->entries) {
    EXPECT_FALSE(e.migrating);
  }
  // The replicated path opts in to preserving it.
  Controller standby2(cluster->config(), cluster->clock(),
                      cluster->allocator(), cluster.get(),
                      cluster->backing());
  ASSERT_TRUE(standby2.Restore(snap, /*preserve_migrating=*/true).ok());
  auto restored2 = standby2.GetPartitionMap("job", "a");
  ASSERT_TRUE(restored2.ok());
  EXPECT_TRUE(restored2->entries[0].migrating);
}

}  // namespace
}  // namespace jiffy
