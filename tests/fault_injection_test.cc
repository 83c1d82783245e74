// Failure-path matrix (DESIGN.md §10): fault-injecting transport, the
// client retry layer that masks transient wire faults, and end-to-end
// failover — chain crashes at every position, crashes during chunked
// migration, renewal storms across controller failover, and exactly-once
// queue delivery under lost responses.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "src/client/jiffy_client.h"
#include "src/ds/kv_content.h"
#include "src/obs/trace.h"

namespace jiffy {
namespace {

// --- Transport-level fault injection ---------------------------------------

TEST(FaultTransportTest, PeekDoesNotConsumeJitterEntropy) {
  // Regression: PeekRoundTrip used to draw from the shared jitter rng, so a
  // planning peek perturbed the seeded jitter sequence of later exchanges.
  NetworkModel model = NetworkModel::Ec2IntraDc();
  ASSERT_GT(model.jitter, 0);
  RealClock* clock = RealClock::Instance();
  Transport plain(model, Transport::Mode::kZero, clock, /*seed=*/99);
  Transport peeked(model, Transport::Mode::kZero, clock, /*seed=*/99);
  for (int i = 0; i < 64; ++i) {
    // Interleave peeks: they must not shift the sampled sequence.
    peeked.PeekRoundTrip(1000, 200);
    peeked.PeekRoundTrip(64, 64);
    EXPECT_EQ(plain.RoundTrip(1000, 200), peeked.RoundTrip(1000, 200)) << i;
  }
  // Peeks are the expected (mean) cost: deterministic across calls.
  EXPECT_EQ(plain.PeekRoundTrip(500, 500), plain.PeekRoundTrip(500, 500));
}

TEST(FaultTransportTest, SeededFaultScheduleIsDeterministic) {
  // Identical seeds + identical traffic must reproduce the exact same fault
  // schedule (statuses AND charged costs) in kZero mode.
  NetworkModel model = NetworkModel::Ec2IntraDc();
  RealClock* clock = RealClock::Instance();
  FaultPlan plan;
  plan.drop_prob = 0.1;
  plan.error_prob = 0.1;
  plan.delay_prob = 0.1;
  plan.extra_delay = 50 * kMicrosecond;
  plan.seed = 1234;
  Transport a(model, Transport::Mode::kZero, clock, /*seed=*/7);
  Transport b(model, Transport::Mode::kZero, clock, /*seed=*/7);
  a.InstallFaultPlan(plan);
  b.InstallFaultPlan(plan);
  int faults = 0;
  for (int i = 0; i < 400; ++i) {
    DurationNs cost_a = 0, cost_b = 0;
    const Status sa = a.Exchange(i % 4, 256 + i, 64, &cost_a);
    const Status sb = b.Exchange(i % 4, 256 + i, 64, &cost_b);
    ASSERT_EQ(sa.code(), sb.code()) << "exchange " << i;
    ASSERT_EQ(cost_a, cost_b) << "exchange " << i;
    faults += sa.ok() ? 0 : 1;
  }
  EXPECT_GT(faults, 0);  // ~20% of 400 exchanges should have faulted.
  EXPECT_EQ(a.fault_drops(), b.fault_drops());
  EXPECT_EQ(a.fault_errors(), b.fault_errors());
  EXPECT_EQ(a.fault_delays(), b.fault_delays());
}

TEST(FaultTransportTest, DropChargesTimeoutErrorChargesRtt) {
  NetworkModel model = NetworkModel::Ec2IntraDc();
  RealClock* clock = RealClock::Instance();
  Transport t(model, Transport::Mode::kZero, clock);
  const DurationNs expected_rtt = t.PeekRoundTrip(1000, 1000);

  FaultPlan drops;
  drops.drop_prob = 1.0;
  t.InstallFaultPlan(drops);
  DurationNs cost = 0;
  EXPECT_EQ(t.Exchange(0, 1000, 1000, &cost).code(), StatusCode::kTimeout);
  EXPECT_GE(cost, 4 * expected_rtt);  // Timeout charge, not a normal RTT.
  EXPECT_EQ(t.fault_drops(), 1u);

  FaultPlan errors;
  errors.error_prob = 1.0;
  t.InstallFaultPlan(errors);
  EXPECT_EQ(t.Exchange(0, 1000, 1000, &cost).code(), StatusCode::kUnavailable);
  EXPECT_LT(cost, 4 * expected_rtt);  // Normal RTT charge.
  EXPECT_EQ(t.fault_errors(), 1u);

  FaultPlan delays;
  delays.delay_prob = 1.0;
  delays.extra_delay = 10 * kMillisecond;
  t.InstallFaultPlan(delays);
  EXPECT_TRUE(t.Exchange(0, 1000, 1000, &cost).ok());
  EXPECT_GE(cost, 10 * kMillisecond);
  EXPECT_EQ(t.fault_delays(), 1u);

  t.ClearFaultPlan();
  EXPECT_TRUE(t.Exchange(0, 1000, 1000, &cost).ok());
  EXPECT_EQ(t.faults_injected(), 2u);  // Drop + error (delay succeeded).
}

TEST(FaultTransportTest, OutageWindowFailsFastThenLifts) {
  SimClock clock;
  clock.AdvanceBy(1 * kSecond);
  Transport t(NetworkModel::Ec2IntraDc(), Transport::Mode::kZero, &clock);
  FaultPlan plan;
  plan.outages.push_back({/*endpoint=*/2, /*from=*/0, /*until=*/5 * kSecond});
  t.InstallFaultPlan(plan);

  EXPECT_FALSE(t.EndpointReachable(2));
  EXPECT_TRUE(t.EndpointReachable(1));
  EXPECT_TRUE(t.EndpointReachable(Transport::kAnyEndpoint));
  EXPECT_EQ(t.Exchange(2, 100, 100).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(t.Exchange(1, 100, 100).ok());
  EXPECT_EQ(t.fault_outages(), 1u);

  clock.AdvanceBy(10 * kSecond);  // Outage window lapses.
  EXPECT_TRUE(t.EndpointReachable(2));
  EXPECT_TRUE(t.Exchange(2, 100, 100).ok());
}

// --- Client retry layer ------------------------------------------------------

class FaultClusterTest : public ::testing::Test {
 protected:
  FaultClusterTest() {
    JiffyCluster::Options opts;
    opts.config.num_memory_servers = 4;
    opts.config.blocks_per_server = 64;
    opts.config.block_size_bytes = 16 << 10;
    opts.config.lease_duration = 3600 * kSecond;
    cluster_ = std::make_unique<JiffyCluster>(opts);
    client_ = std::make_unique<JiffyClient>(cluster_.get());
    EXPECT_TRUE(client_->RegisterJob("job").ok());
  }

  static FaultPlan TransientFaults(double rate, uint64_t seed) {
    FaultPlan plan;
    plan.drop_prob = rate / 2;
    plan.error_prob = rate / 2;
    plan.seed = seed;
    return plan;
  }

  void InstallEverywhere(const FaultPlan& plan) {
    cluster_->data_transport()->InstallFaultPlan(plan);
    cluster_->control_transport()->InstallFaultPlan(plan);
  }

  void ClearEverywhere() {
    cluster_->data_transport()->ClearFaultPlan();
    cluster_->control_transport()->ClearFaultPlan();
  }

  std::unique_ptr<JiffyCluster> cluster_;
  std::unique_ptr<JiffyClient> client_;
};

TEST_F(FaultClusterTest, KvClosedLoopMasksOnePercentFaults) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  InstallEverywhere(TransientFaults(0.01, /*seed=*/42));
  for (int i = 0; i < 1000; ++i) {
    const std::string k = "k" + std::to_string(i % 100);
    ASSERT_TRUE((*kv)->Put(k, "v" + std::to_string(i)).ok()) << i;
    auto v = (*kv)->Get(k);
    ASSERT_TRUE(v.ok()) << i << ": " << v.status();
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
  ClearEverywhere();
  // Faults were injected AND masked (never client-visible).
  EXPECT_GT(cluster_->data_transport()->faults_injected() +
                cluster_->control_transport()->faults_injected(),
            0u);
  auto state = cluster_->registry()->GetOrCreate("job", "kv");
  EXPECT_GT(state->masked_faults.load() + state->retries.load(), 0u);
}

TEST_F(FaultClusterTest, FileClosedLoopMasksOnePercentFaults) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/f", {}).ok());
  auto file = client_->OpenFile("/job/f");
  ASSERT_TRUE(file.ok());
  InstallEverywhere(TransientFaults(0.01, /*seed=*/43));
  const std::string chunk(128, 'x');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE((*file)->Append(chunk).ok()) << i;
  }
  for (int i = 0; i < 400; ++i) {
    auto r = (*file)->Read(static_cast<uint64_t>(i) * 128, 128);
    ASSERT_TRUE(r.ok()) << i << ": " << r.status();
    EXPECT_EQ(*r, chunk);
  }
  ClearEverywhere();
  EXPECT_GT(cluster_->data_transport()->faults_injected(), 0u);
}

TEST_F(FaultClusterTest, QueueClosedLoopMasksOnePercentFaults) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/q", {}).ok());
  auto q = client_->OpenQueue("/job/q");
  ASSERT_TRUE(q.ok());
  InstallEverywhere(TransientFaults(0.01, /*seed=*/44));
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*q)->Enqueue("item" + std::to_string(i)).ok()) << i;
  }
  for (int i = 0; i < 500; ++i) {
    auto item = (*q)->Dequeue();
    ASSERT_TRUE(item.ok()) << i << ": " << item.status();
    EXPECT_EQ(*item, "item" + std::to_string(i)) << "lost or duplicated item";
  }
  ClearEverywhere();
  EXPECT_GT(cluster_->data_transport()->faults_injected(), 0u);
}

TEST_F(FaultClusterTest, DequeueRedeliveryIsExactlyOnce) {
  // A dequeue whose response is lost must redeliver the SAME item on retry —
  // never silently consume it (loss) or hand out the next one (duplicate
  // consume). Drive the drop rate high enough that many dequeues need
  // several wire attempts.
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/q", {}).ok());
  auto q = client_->OpenQueue("/job/q");
  ASSERT_TRUE(q.ok());
  const int kItems = 300;
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE((*q)->Enqueue("m" + std::to_string(i)).ok());
  }
  FaultPlan plan;
  plan.drop_prob = 0.25;
  plan.seed = 77;
  cluster_->data_transport()->InstallFaultPlan(plan);
  std::vector<std::string> got;
  for (int i = 0; i < kItems; ++i) {
    auto item = (*q)->Dequeue();
    ASSERT_TRUE(item.ok()) << i << ": " << item.status();
    got.push_back(*item);
  }
  cluster_->data_transport()->ClearFaultPlan();
  ASSERT_GT(cluster_->data_transport()->fault_drops(), 0u);
  // In-order, exactly-once: the received sequence is exactly the enqueued one.
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(got[i], "m" + std::to_string(i)) << "at " << i;
  }
  // Queue fully drained (nothing left behind, nothing consumed twice).
  EXPECT_EQ((*q)->Dequeue().status().code(), StatusCode::kNotFound);
}

TEST_F(FaultClusterTest, RetryGivesUpAgainstTotalLoss) {
  // 100% drop rate: retries must brake (attempts/deadline/budget) and
  // surface the failure instead of hanging.
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("k", "v").ok());
  FaultPlan plan;
  plan.drop_prob = 1.0;
  cluster_->data_transport()->InstallFaultPlan(plan);
  const Status st = (*kv)->Put("k", "v2");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(RetryPolicy::IsRetryable(st.code()));
  cluster_->data_transport()->ClearFaultPlan();
  // Recovery is immediate once the wire heals.
  EXPECT_TRUE((*kv)->Put("k", "v3").ok());
  EXPECT_EQ(*(*kv)->Get("k"), "v3");
}

TEST_F(FaultClusterTest, OutageWindowMasksViaFailover) {
  // A server inside an outage window is treated like a failed server: the
  // client fails over to the promoted chain and the op still succeeds.
  CreateOptions opts;
  opts.replication_factor = 2;
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}, opts).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), "v").ok());
  }
  const BlockId primary = (*kv)->CachedMap().entries[0].block;
  FaultPlan plan;
  plan.outages.push_back({primary.server_id, /*from=*/0,
                          /*until=*/std::numeric_limits<TimeNs>::max()});
  cluster_->data_transport()->InstallFaultPlan(plan);
  for (int i = 0; i < 20; ++i) {
    auto v = (*kv)->Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status();
  }
  ASSERT_TRUE((*kv)->Put("during-outage", "w").ok());
  cluster_->data_transport()->ClearFaultPlan();
  EXPECT_EQ(*(*kv)->Get("during-outage"), "w");
}

// --- Trace propagation under faults ------------------------------------------

// Enables tracing for one test and restores/clears on exit.
class ScopedTracing {
 public:
  ScopedTracing()
      : enabled_(obs::Enabled()),
        trace_enabled_(obs::Tracer::Global()->enabled()) {
    obs::SetEnabled(true);
    obs::Tracer::Global()->SetEnabled(true);
    obs::SetTraceSampleEvery(1);
    obs::Tracer::Global()->Clear();
  }
  ~ScopedTracing() {
    obs::SetEnabled(enabled_);
    obs::Tracer::Global()->SetEnabled(trace_enabled_);
    obs::Tracer::Global()->Clear();
  }

 private:
  bool enabled_;
  bool trace_enabled_;
};

TEST_F(FaultClusterTest, RetriedAttemptsStayInTheClientOpTrace) {
  // A fault-masked op is several wire attempts but ONE logical request: all
  // of its transport spans must carry the op's trace_id, never a fresh one.
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("warm", "up").ok());  // Map settled before tracing.
  ScopedTracing tracing;
  FaultPlan plan;
  plan.drop_prob = 0.3;
  plan.seed = 4242;
  cluster_->data_transport()->InstallFaultPlan(plan);
  const int kOps = 50;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE((*kv)->Put("k", "v" + std::to_string(i)).ok()) << i;
  }
  cluster_->data_transport()->ClearFaultPlan();
  ASSERT_GT(cluster_->data_transport()->fault_drops(), 0u);

  std::set<uint64_t> op_traces;
  std::map<uint64_t, int> rtts_per_trace;
  for (const auto& e : obs::Tracer::Global()->Collect()) {
    if (std::string_view(e.name) == "kv.put") {
      EXPECT_NE(e.trace_id, 0u);
      op_traces.insert(e.trace_id);
    } else if (std::string_view(e.name) == "net.rtt") {
      ++rtts_per_trace[e.trace_id];
    }
  }
  EXPECT_EQ(op_traces.size(), static_cast<size_t>(kOps));  // One trace per op.
  int max_attempts = 0;
  for (const auto& [trace, n] : rtts_per_trace) {
    // No orphan transport spans: every RTT belongs to some client op.
    EXPECT_TRUE(op_traces.count(trace) > 0) << "orphan net.rtt trace";
    max_attempts = std::max(max_attempts, n);
  }
  // Some op needed more than one attempt, and the retries joined its trace.
  EXPECT_GT(max_attempts, 1);
}

TEST_F(FaultClusterTest, FailoverRepairJoinsTheClientOpTrace) {
  // When an op trips chain repair, the controller-side repair span must be
  // causally linked under the op that triggered it — that is what makes
  // "why was this Get slow?" answerable from one trace.
  CreateOptions opts;
  opts.replication_factor = 2;
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}, opts).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("k", "v").ok());
  const BlockId primary = (*kv)->CachedMap().entries[0].block;
  ScopedTracing tracing;
  FaultPlan plan;
  plan.outages.push_back({primary.server_id, /*from=*/0,
                          /*until=*/std::numeric_limits<TimeNs>::max()});
  cluster_->data_transport()->InstallFaultPlan(plan);
  // Writes go to the chain head (the unreachable primary), forcing failover.
  ASSERT_TRUE((*kv)->Put("k", "w").ok());
  cluster_->data_transport()->ClearFaultPlan();
  EXPECT_EQ(*(*kv)->Get("k"), "w");

  const auto events = obs::Tracer::Global()->Collect();
  std::set<uint64_t> put_traces;
  for (const auto& e : events) {
    if (std::string_view(e.name) == "kv.put") {
      EXPECT_NE(e.trace_id, 0u);
      put_traces.insert(e.trace_id);
    }
  }
  ASSERT_FALSE(put_traces.empty());
  bool repair_linked = false;
  for (const auto& e : events) {
    if (std::string_view(e.name) == "ctl.repair_entry" &&
        put_traces.count(e.trace_id) > 0) {
      EXPECT_NE(e.parent_id, 0u);  // Child of the op, not a fresh root.
      repair_linked = true;
    }
  }
  EXPECT_TRUE(repair_linked) << "repair ran outside the triggering op's trace";
}

// --- End-to-end failover -----------------------------------------------------

class FaultFailoverTest : public ::testing::Test {
 protected:
  std::unique_ptr<JiffyCluster> MakeCluster(uint32_t servers = 4) {
    JiffyCluster::Options opts;
    opts.config.num_memory_servers = servers;
    opts.config.blocks_per_server = 64;
    opts.config.block_size_bytes = 16 << 10;
    opts.config.lease_duration = 3600 * kSecond;
    return std::make_unique<JiffyCluster>(opts);
  }
};

TEST_F(FaultFailoverTest, ChainSurvivesCrashAtEveryPosition) {
  // Replication factor 3: crash the head (primary), a middle replica, and
  // the tail (read target) in separate clusters; data must survive each.
  for (int position = 0; position < 3; ++position) {
    auto cluster = MakeCluster();
    JiffyClient client(cluster.get());
    ASSERT_TRUE(client.RegisterJob("job").ok());
    CreateOptions opts;
    opts.replication_factor = 3;
    ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}, opts).ok());
    auto kv = client.OpenKv("/job/kv");
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), "v").ok());
    }
    auto map = (*kv)->CachedMap();
    ASSERT_EQ(map.entries[0].replicas.size(), 2u);
    const BlockId victim = position == 0 ? map.entries[0].block
                                         : map.entries[0].replicas[position - 1];
    cluster->FailServer(victim.server_id);
    for (int i = 0; i < 50; ++i) {
      auto v = (*kv)->Get("k" + std::to_string(i));
      ASSERT_TRUE(v.ok()) << "position " << position << " key " << i << ": "
                          << v.status();
    }
    ASSERT_TRUE((*kv)->Put("after", "crash").ok()) << "position " << position;
    // Eager repair restored the chain to factor 3 on live servers only.
    ASSERT_TRUE((*kv)->RefreshMap().ok());
    map = (*kv)->CachedMap();
    EXPECT_EQ(map.entries[0].replicas.size(), 2u) << "position " << position;
    EXPECT_NE(map.entries[0].block.server_id, victim.server_id);
    for (const BlockId& r : map.entries[0].replicas) {
      EXPECT_NE(r.server_id, victim.server_id) << "position " << position;
    }
  }
}

TEST_F(FaultFailoverTest, PartitionMapRepairedEagerlyAfterFailServer) {
  // Regression: FailServer used to mark the server dead only in the
  // allocator, so GetPartitionMap kept handing out dead addresses until a
  // client happened to trip FailOver. The controller must repair its
  // entries as part of FailServer itself.
  auto cluster = MakeCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  CreateOptions opts;
  opts.replication_factor = 2;
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}, opts).ok());
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("k", "v").ok());
  const BlockId primary = (*kv)->CachedMap().entries[0].block;
  const uint64_t version_before = (*kv)->CachedMap().version;

  cluster->FailServer(primary.server_id);

  // No client op in between: the repair happened inside FailServer.
  auto map = cluster->ControllerFor("job")->GetPartitionMap("job", "kv");
  ASSERT_TRUE(map.ok());
  EXPECT_GT(map->version, version_before);
  for (const auto& entry : map->entries) {
    EXPECT_NE(entry.block.server_id, primary.server_id);
    EXPECT_FALSE(entry.lost);
    EXPECT_EQ(entry.replicas.size(), 1u);  // Chain length restored.
    for (const BlockId& r : entry.replicas) {
      EXPECT_NE(r.server_id, primary.server_id);
    }
  }
}

TEST_F(FaultFailoverTest, ResolveOfDeadBlockFailsCleanly) {
  // Regression: every resolve site must tolerate a null Block* (dead or
  // unreachable server) instead of dereferencing it.
  auto cluster = MakeCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());  // r = 1.
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("k", "v").ok());
  const BlockId primary = (*kv)->CachedMap().entries[0].block;
  cluster->FailServer(primary.server_id);
  EXPECT_EQ(cluster->ResolveBlock(primary), nullptr);
  // Unreplicated data is lost — but every op fails with a clean status.
  EXPECT_EQ(client.cluster() == nullptr, false);
  EXPECT_EQ((*kv)->Get("k").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ((*kv)->Put("k", "w").code(), StatusCode::kUnavailable);
  EXPECT_EQ((*kv)->Delete("k").code(), StatusCode::kUnavailable);
}

TEST_F(FaultFailoverTest, LostPrefixReloadsFromPersistentTier) {
  // When the whole chain dies, the entry is flagged `lost`, repairs fail
  // fast with kUnavailable, and LoadAddrPrefix brings the data back from a
  // checkpoint.
  auto cluster = MakeCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());  // r = 1.
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(client.FlushAddrPrefix("/job/kv", "ckpt/kv").ok());
  const BlockId primary = (*kv)->CachedMap().entries[0].block;
  cluster->FailServer(primary.server_id);

  // The entry is flagged lost: repairs fail fast, the map says so.
  auto map = cluster->ControllerFor("job")->GetPartitionMap("job", "kv");
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->entries.size(), 1u);
  EXPECT_TRUE(map->entries[0].lost);
  EXPECT_EQ(cluster->ControllerFor("job")
                ->RepairEntry("job", "kv", map->entries[0].block)
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ((*kv)->Get("k0").status().code(), StatusCode::kUnavailable);

  // The `lost` flag survives a controller failover (snapshot v2).
  Controller standby(cluster->config(), cluster->clock(), cluster->allocator(),
                     cluster.get(), cluster->backing());
  ASSERT_TRUE(standby.Restore(cluster->ControllerFor("job")->Snapshot()).ok());
  auto standby_map = standby.GetPartitionMap("job", "kv");
  ASSERT_TRUE(standby_map.ok());
  EXPECT_TRUE(standby_map->entries[0].lost);

  // Reload from the checkpoint revives the prefix on live servers.
  ASSERT_TRUE(client.LoadAddrPrefix("/job/kv", "ckpt/kv").ok());
  ASSERT_TRUE((*kv)->RefreshMap().ok());
  for (int i = 0; i < 10; ++i) {
    auto v = (*kv)->Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status();
    EXPECT_EQ(*v, "v");
  }
}

TEST_F(FaultFailoverTest, CrashDuringChunkedMigrationIsRepaired) {
  // A server crash while an entry is mid-migration: the eager repair
  // promotes a survivor but must NOT allocate replicas behind the
  // migration's back; re-replication happens after the bracket closes.
  auto cluster = MakeCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  CreateOptions opts;
  opts.replication_factor = 2;
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}, opts).ok());
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), "v").ok());
  }
  Controller* ctl = cluster->ControllerFor("job");
  const BlockId primary = (*kv)->CachedMap().entries[0].block;
  ASSERT_TRUE(ctl->BeginMigration("job", "kv", primary).ok());
  cluster->FailServer(primary.server_id);

  // Repaired: survivor promoted; chain deliberately short while migrating.
  auto map = ctl->GetPartitionMap("job", "kv");
  ASSERT_TRUE(map.ok());
  EXPECT_NE(map->entries[0].block.server_id, primary.server_id);
  EXPECT_FALSE(map->entries[0].lost);
  EXPECT_TRUE(map->entries[0].migrating);
  EXPECT_TRUE(map->entries[0].replicas.empty());

  // The migration aborts (its source vanished); closing the bracket lets
  // re-replication restore the factor.
  ASSERT_TRUE(ctl->EndMigration("job", "kv", map->entries[0].block).ok());
  auto created = ctl->ReReplicate("job", "kv");
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(*created, 1u);
  for (int i = 0; i < 20; ++i) {
    auto v = (*kv)->Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status();
  }
}

TEST_F(FaultFailoverTest, BackgroundSplitsSurviveServerCrash) {
  // End-to-end: enough writes to trigger background chunked splits, then a
  // server crash mid-stream. Every key must remain readable afterwards.
  auto cluster = MakeCluster(/*servers=*/6);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  CreateOptions opts;
  opts.replication_factor = 2;
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}, opts).ok());
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  const std::string value(256, 'd');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), value).ok()) << i;
    if (i == 120) {
      // Crash whichever server hosts the current primary of entry 0.
      cluster->FailServer((*kv)->CachedMap().entries[0].block.server_id);
    }
  }
  cluster->repartitioner()->WaitIdle();
  for (int i = 0; i < 200; ++i) {
    auto v = (*kv)->Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status();
    EXPECT_EQ(*v, value);
  }
}

TEST_F(FaultFailoverTest, RenewalStormAcrossControllerFailover) {
  // Threads hammer lease renewals while the primary snapshots; a standby
  // restored from that snapshot keeps serving renewals for the same jobs.
  auto cluster = MakeCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/a", {}).ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/b", {"a"}).ok());
  ASSERT_TRUE(client.OpenKv("/job/a").ok());
  Controller* primary = cluster->ControllerFor("job");

  ASSERT_TRUE(primary->RenewLease("job", "a").ok());

  std::atomic<uint64_t> renewals{0};
  std::atomic<int> running{0};
  std::vector<std::thread> stormers;
  for (int t = 0; t < 4; ++t) {
    stormers.emplace_back([&] {
      running.fetch_add(1);
      for (int i = 0; i < 500; ++i) {
        auto r = primary->RenewLease("job", "a");
        if (r.ok()) {
          renewals.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (running.load() < 4) {
    std::this_thread::yield();
  }
  // Snapshot mid-storm (quiesces one job at a time under the storm).
  std::string snap;
  for (int i = 0; i < 20; ++i) {
    snap = primary->Snapshot();
  }
  for (auto& th : stormers) {
    th.join();
  }
  EXPECT_EQ(renewals.load(), 2000u);  // Every renewal succeeded mid-snapshot.

  Controller standby(cluster->config(), cluster->clock(), cluster->allocator(),
                     cluster.get(), cluster->backing());
  ASSERT_TRUE(standby.Restore(snap).ok());
  // The promoted standby serves the same renewal traffic.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(standby.RenewLease("job", "a").ok()) << i;
  }
  EXPECT_TRUE(standby.GetPartitionMap("job", "a").ok());
}

// --- Replicated control plane under fire (DESIGN.md §14) --------------------

TEST(FaultRsmTest, RenewalStormRidesThroughLeaderCrash) {
  JiffyCluster::Options copts;
  copts.config.num_memory_servers = 4;
  copts.config.blocks_per_server = 32;
  copts.config.block_size_bytes = 16 << 10;
  copts.config.controller_replicas = 3;
  copts.config.lease_duration = 3600 * kSecond;  // No expiry mid-storm.
  auto cluster = std::make_unique<JiffyCluster>(copts);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  ASSERT_NE(group, nullptr);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateHierarchy("job", {{"a", {}}, {"b", {"a"}}}).ok());
  // Concurrent renewal traffic from several clients while the leader is
  // crashed mid-storm: the client retry layer re-resolves the new leader,
  // and no renewal that was acknowledged may be lost.
  std::atomic<uint64_t> acked{0};
  std::atomic<int> running{0};
  std::vector<std::thread> stormers;
  for (int t = 0; t < 4; ++t) {
    stormers.emplace_back([&] {
      JiffyClient c(cluster.get());
      running.fetch_add(1);
      for (int i = 0; i < 250; ++i) {
        if (c.RenewLease("/job/a").ok()) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (running.load() < 4) {
    std::this_thread::yield();
  }
  group->LeaderController();
  const int leader = group->leader_index();
  ASSERT_GE(leader, 0);
  group->Crash(leader);
  for (auto& th : stormers) {
    th.join();
  }
  // Renewals are idempotent and retried, so every one is acknowledged.
  EXPECT_EQ(acked.load(), 1000u);
  // Post-failover the hierarchy is fully intact on the promoted leader.
  EXPECT_TRUE(client.GetLeaseDuration("/job/a").ok());
  EXPECT_TRUE(client.GetLeaseDuration("/job/b").ok());
  EXPECT_NE(group->leader_index(), leader);
}

TEST(FaultRsmTest, ConcurrentMutationsAcrossArmedCrashesStayConsistent) {
  // Several writer threads create prefixes while crash points fire on the
  // leader; afterwards every acknowledged prefix must exist and the group's
  // logs must agree (the TSan/ASan CI leg runs this under sanitizers).
  JiffyCluster::Options copts;
  copts.config.num_memory_servers = 4;
  copts.config.blocks_per_server = 32;
  copts.config.block_size_bytes = 16 << 10;
  copts.config.controller_replicas = 3;
  auto cluster = std::make_unique<JiffyCluster>(copts);
  rsm::ControllerGroup* group = cluster->controller_group(0);
  JiffyClient seed(cluster.get());
  ASSERT_TRUE(seed.RegisterJob("job").ok());
  ASSERT_TRUE(seed.CreateHierarchy("job", {{"a", {}}}).ok());
  std::vector<std::vector<std::string>> acked(4);
  std::vector<std::thread> writers;
  std::atomic<int> running{0};
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      JiffyClient c(cluster.get());
      running.fetch_add(1);
      for (int i = 0; i < 40; ++i) {
        const std::string name =
            "w" + std::to_string(t) + "-" + std::to_string(i);
        Status st = c.CreateAddrPrefix("/job/" + name, {"a"});
        if (st.ok() || st.code() == StatusCode::kAlreadyExists) {
          acked[t].push_back(name);
        }
      }
    });
  }
  while (running.load() < 4) {
    std::this_thread::yield();
  }
  // Fire a rolling sequence of crash/restart on whoever currently leads.
  const rsm::CrashPoint points[] = {rsm::CrashPoint::kLeaderAfterAppend,
                                    rsm::CrashPoint::kLeaderAfterReplicate,
                                    rsm::CrashPoint::kLeaderAfterCommit};
  for (const auto point : points) {
    group->LeaderController();
    const int leader = group->leader_index();
    if (leader >= 0) {
      group->ArmCrash(leader, point);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (int i = 0; i < group->size(); ++i) {
      group->Restart(i);
    }
  }
  for (auto& th : writers) {
    th.join();
  }
  for (int i = 0; i < group->size(); ++i) {
    group->Restart(i);
  }
  // Zero lost DAG mutations: every acknowledged create is present.
  JiffyClient check(cluster.get());
  for (const auto& per_writer : acked) {
    for (const auto& name : per_writer) {
      EXPECT_TRUE(check.GetLeaseDuration("/job/" + name).ok()) << name;
    }
  }
  // And the replicas converge to identical logs. The first logged call
  // may still trip a crash point left over from the storm (one that rode
  // through kLeaderAfterCommit reports kAlreadyExists); restart and log
  // once more so the whole group is alive and caught up for the
  // comparison.
  const Status first = check.CreateAddrPrefix("/job/sync0", {"a"});
  ASSERT_TRUE(first.ok() || first.code() == StatusCode::kAlreadyExists)
      << first.ToString();
  for (int i = 0; i < group->size(); ++i) {
    group->Restart(i);
  }
  ASSERT_TRUE(check.CreateAddrPrefix("/job/sync1", {"a"}).ok());
  const int leader = group->leader_index();
  ASSERT_GE(leader, 0);
  for (int i = 0; i < group->size(); ++i) {
    EXPECT_EQ(group->replica(i)->last_index(),
              group->replica(leader)->last_index());
  }
}

}  // namespace
}  // namespace jiffy
