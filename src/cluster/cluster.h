// Cluster assembly: builds the simulated Jiffy deployment (DESIGN.md §1).
//
// A JiffyCluster wires together the data plane (MemoryServers), the unified
// control plane (one or more Controller shards sharing a BlockAllocator),
// the persistent backing tier used on lease expiry, the per-DS registry
// (subscriptions, queue accounting), and the two Transports every client
// charges: control-plane RPCs and data-plane reads/writes.
//
// It also implements DataPlaneHooks — the controller-to-data-plane calls
// that install, serialize, restore, and reset block contents — because the
// assembly is the one layer that knows both the block table and each data
// structure's content class.

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/block/block.h"
#include "src/common/config.h"
#include "src/core/controller.h"
#include "src/core/repartitioner.h"
#include "src/ds/registry.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/persistent/persistent_store.h"
#include "src/rsm/group.h"

namespace jiffy {

class JiffyCluster : public DataPlaneHooks {
 public:
  struct Options {
    JiffyConfig config;
    Clock* clock = RealClock::Instance();
    // Network handling for client↔cluster RPCs. kZero = unit tests /
    // virtual-time replay; kSleep = real-time microbenchmarks.
    Transport::Mode net_mode = Transport::Mode::kZero;
    NetworkModel net_model = NetworkModel::Loopback();
    // Persistent tier for expiry flushes. When null an internal zero-cost
    // local store is created (tests); benches pass an S3/SSD model.
    PersistentStore* backing = nullptr;
  };

  explicit JiffyCluster(const Options& options);
  ~JiffyCluster() override;

  JiffyCluster(const JiffyCluster&) = delete;
  JiffyCluster& operator=(const JiffyCluster&) = delete;

  // --- Topology -------------------------------------------------------------

  const JiffyConfig& config() const { return config_; }
  Clock* clock() { return clock_; }

  uint32_t num_controller_shards() const { return shards_; }
  // The shard's serving controller. Unreplicated: the shard's only
  // controller. Replicated (controller_replicas >= 3): the group's current
  // leader, running an election first if none is valid (DESIGN.md §14).
  Controller* controller_shard(uint32_t i);
  // Shard responsible for `job` (hash partitioning, §4.2.1).
  Controller* ControllerFor(const std::string& job);

  // Replica `r` of shard `i` regardless of leadership (tests / bench).
  Controller* controller_replica(uint32_t i, uint32_t r) {
    return controllers_[i * replicas_per_shard_ + r].get();
  }
  uint32_t controller_replicas() const { return replicas_per_shard_; }
  // The shard's replication group; null when the control plane is
  // unreplicated (controller_replicas == 1).
  rsm::ControllerGroup* controller_group(uint32_t i) {
    return groups_.empty() ? nullptr : groups_[i].get();
  }

  MemoryServer* memory_server(uint32_t i) { return servers_[i].get(); }
  uint32_t num_memory_servers() const {
    return static_cast<uint32_t>(servers_.size());
  }

  Block* ResolveBlock(BlockId id);

  DsRegistry* registry() { return &registry_; }
  PersistentStore* backing() { return backing_; }
  std::shared_ptr<BlockAllocator> allocator() { return allocator_; }

  Transport* control_transport() { return control_transport_.get(); }
  Transport* data_transport() { return data_transport_.get(); }

  // Background repartition worker (DESIGN.md §9), the only mechanism that
  // splits and merges KV blocks. Never null: built and started with the
  // cluster, stopped first on destruction.
  Repartitioner* repartitioner() { return repartitioner_.get(); }

  // --- Observability --------------------------------------------------------
  //
  // Every component of this cluster registers its metrics in one registry at
  // construction: "allocator.*", "controller.<shard>.*", "server.<id>.*",
  // "transport.control.*", "transport.data.*", "cluster.*".

  obs::MetricsRegistry* metrics() { return &metrics_; }
  obs::MetricsSnapshot MetricsSnapshot() { return metrics_.Snapshot(); }
  std::string MetricsPrometheusText() { return metrics_.PrometheusText(); }

  // Per-tenant SLO tracking: every client op reports (tenant, latency, ok)
  // here (gated on JIFFY_SLO; see src/obs/slo.h).
  obs::SloMonitor* slo() { return &slo_; }

  // Operator-facing health dump: per-tenant SLO table plus cluster capacity
  // and fault counters. `json` selects a machine-readable rendering.
  std::string HealthReport(bool json = false);

  // --- Capacity accounting (Fig 9(b), Fig 11(a)) ----------------------------

  size_t TotalCapacityBytes() const { return config_.TotalCapacityBytes(); }
  size_t AllocatedBytes() const;  // Blocks held × block size.
  size_t UsedBytes();             // Actual content bytes across blocks.

  // --- DataPlaneHooks --------------------------------------------------------

  Status InitBlock(BlockId id, DsType type, uint64_t lo, uint64_t hi,
                   const std::string& job, const std::string& prefix,
                   const std::string& custom_type = "") override;
  Result<std::string> SerializeBlock(BlockId id) override;
  Status RestoreBlock(BlockId id, DsType type, const std::string& data,
                      uint64_t lo, uint64_t hi, const std::string& job,
                      const std::string& prefix,
                      const std::string& custom_type = "") override;
  Status ResetBlock(BlockId id) override;
  bool IsBlockLive(BlockId id) override;

  // --- Failure injection (§4.2.2 chain replication) --------------------------

  // Fails memory server `i`: ResolveBlock returns nullptr for its blocks,
  // the allocator retires its free list, and every controller shard learns
  // to avoid it.
  void FailServer(uint32_t i);

 private:
  JiffyConfig config_;
  Clock* clock_;
  std::unique_ptr<SimObjectStore> owned_backing_;
  PersistentStore* backing_;
  std::shared_ptr<BlockAllocator> allocator_;
  std::vector<std::unique_ptr<MemoryServer>> servers_;
  // Shard-major: controller for (shard s, replica r) lives at index
  // s * replicas_per_shard_ + r. All replicas of a shard share the data
  // plane; only the leader's metadata is materialized.
  std::vector<std::unique_ptr<Controller>> controllers_;
  uint32_t shards_ = 1;
  uint32_t replicas_per_shard_ = 1;
  DsRegistry registry_;
  std::unique_ptr<Transport> control_transport_;
  std::unique_ptr<Transport> data_transport_;
  // Stopped explicitly at the top of ~JiffyCluster so its worker thread never
  // touches servers/controllers mid-teardown.
  std::unique_ptr<Repartitioner> repartitioner_;
  // Declared after controllers_ / control_transport_ (destroyed first):
  // groups hold raw pointers into both.
  std::vector<std::unique_ptr<rsm::ControllerGroup>> groups_;

  // Owned per cluster (no process-global registry) so tests that build
  // several clusters never share metrics. Bound components cache raw metric
  // pointers but never record from destructors, so member order is not
  // load-bearing.
  obs::MetricsRegistry metrics_;
  obs::SloMonitor slo_;
  obs::Counter* m_init_blocks_ = nullptr;
  obs::Counter* m_serialize_blocks_ = nullptr;
  obs::Counter* m_restore_blocks_ = nullptr;
  obs::Counter* m_reset_blocks_ = nullptr;
};

}  // namespace jiffy

#endif  // SRC_CLUSTER_CLUSTER_H_
