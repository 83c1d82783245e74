// Shared machinery for data-structure client handles (§4.1 "handle ds that
// encapsulates physical locations of allocated blocks").
//
// A DsClient caches the data structure's partition map (block locations +
// responsibility ranges). Operations route directly to memory-server blocks
// through the data-plane transport; when the data plane reports
// kStaleMetadata (the map version moved because blocks were added/removed,
// §4.2.1), the client refetches the map from the controller and retries —
// exactly the paper's client protocol.
//
// The cached map is one immutable MapSnapshot, replaced whole on every
// refresh, so an op takes a reference under the map lock instead of copying
// the map. A KV map's snapshot also carries a slot→entry index built once
// per refresh, which turns routing a key into one array lookup.

#ifndef SRC_CLIENT_DS_CLIENT_H_
#define SRC_CLIENT_DS_CLIENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/client/retry.h"
#include "src/common/hash.h"
#include "src/core/hierarchy.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace jiffy {

class DsClient {
 public:
  // `kind` is the attribution label for this handle's data-structure kind
  // ("kv", "queue", "file", "custom") — a string literal; it becomes the
  // `kind` label on every per-tenant metric this client records.
  DsClient(JiffyCluster* cluster, std::string job, std::string prefix,
           PartitionMap initial_map, const char* kind = "ds");
  virtual ~DsClient() = default;

  const std::string& job() const { return job_; }
  const std::string& prefix() const { return prefix_; }
  // Attribution tenant (job-id prefix before ':' or '.', see obs::TenantOf).
  const std::string& tenant() const { return tenant_; }

  // Subscribe to notifications for `op` on this data structure (Table 1).
  std::shared_ptr<Listener> Subscribe(const std::string& op);
  void Unsubscribe(const std::string& op, const std::shared_ptr<Listener>& l);

  // Copy of the cached partition map.
  PartitionMap CachedMap() const;
  uint64_t map_version() const;
  // Entry count without copying the map (hot-path overload checks).
  size_t map_entry_count() const;

  // Forces a metadata refresh from the controller.
  Status RefreshMap();

  // Retry policy applied to every wire exchange this client issues.
  const RetryPolicy& retry_policy() const { return retry_policy_; }
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

 protected:
  // An immutable cached partition map, shared by reference count.
  struct MapSnapshot {
    static constexpr uint32_t kUnmapped = UINT32_MAX;

    PartitionMap map;
    // KV maps only: for each hash slot, the index into map.entries of the
    // first entry whose [lo, hi) owns it, or kUnmapped when none does (the
    // map is stale for that slot). Empty for other data structures.
    std::vector<uint32_t> slot_entry;
  };

  // The current snapshot; a refresh swaps in a new one and never mutates
  // this one, so callers may hold it across the op.
  std::shared_ptr<const MapSnapshot> Snapshot() const {
    std::lock_guard<std::mutex> lock(map_mu_);
    return map_;
  }

  // --- Per-op SLO / attribution scope ---------------------------------------
  //
  // Every public data-structure op opens one OpScope. On destruction it
  // reports (tenant, wall latency, ok) into the cluster's SloMonitor and
  // bumps the client's labeled op/error counters. Ops start presumed
  // failed; call Success() on the committed path so early error returns
  // count against the tenant's error budget without per-return bookkeeping.
  // When JIFFY_SLO and metrics are both disabled, construction is two
  // relaxed loads and no clock read.
  class OpScope {
   public:
    explicit OpScope(DsClient* client)
        : client_(client),
          start_(obs::SloEnabled() || obs::Enabled()
                     ? RealClock::Instance()->Now()
                     : kInactive) {}
    ~OpScope() {
      if (start_ == kInactive) {
        return;
      }
      client_->RecordOp(RealClock::Instance()->Now() - start_, ok_);
    }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

    void Success() { ok_ = true; }
    // For ops whose outcome is a Status in hand at the end. A kNotFound is
    // a correct answer (cache miss), not an SLO error.
    void Finish(const Status& st) {
      ok_ = st.ok() || st.code() == StatusCode::kNotFound;
    }

   private:
    static constexpr TimeNs kInactive = -1;
    DsClient* client_;
    TimeNs start_;
    bool ok_ = false;
  };

  // Interned tenant id for span attribution (stable process-lifetime
  // pointer; safe to attach to TraceSpan::SetAttr).
  const char* tenant_attr() const { return tenant_attr_; }

  // --- Fault-masked wire exchanges (DESIGN.md §10) --------------------------
  //
  // All data/control-plane charges go through these instead of raw
  // Transport::RoundTrip so injected faults (drops, transient errors,
  // outage windows) are retried per `retry_policy_` with exponential
  // backoff. A non-OK return means the fault survived every allowed retry
  // (budget/deadline/attempts exhausted) — callers treat it like any other
  // transient failure: fail over or surface it.

  // One data-plane exchange with the server hosting `target`.
  Status DataExchange(BlockId target, size_t req_bytes, size_t resp_bytes);

  // Batched data-plane exchange (one wire RPC carrying `n_ops` operations).
  Status DataExchangeBatch(BlockId target, size_t n_ops, size_t req_bytes,
                           size_t resp_bytes);

  // One control-plane exchange with this job's controller shard.
  Status ControlExchange(size_t req_bytes, size_t resp_bytes);
  // Charges one control-plane round trip and refetches the map.
  Status RefreshMapInternal();

  // Charges the control-plane cost of one repartition event (§6.3: the
  // memory server spends ~1-1.5 ms connecting to the controller plus two
  // round trips to trigger allocation/reclamation and update partition
  // metadata). Sleeps only in kSleep transports.
  void ChargeRepartitionControl();

  // Publishes a notification to subscribers of `op`. With no subscribers
  // (the hot-path common case) this is one relaxed atomic load — callers
  // that must *build* a payload (std::to_string etc.) should guard the
  // construction with Subscribed() so the data plane pays nothing.
  void Publish(std::string_view op, std::string_view payload);
  bool Subscribed() const { return state_->subscriptions.HasSubscribers(); }

  Block* Resolve(BlockId id) { return cluster_->ResolveBlock(id); }
  Controller* controller() { return cluster_->ControllerFor(job_); }
  Transport* data_net() { return cluster_->data_transport(); }
  Transport* control_net() { return cluster_->control_transport(); }
  const JiffyConfig& config() const { return cluster_->config(); }
  Clock* clock() { return cluster_->clock(); }
  DsState* state() { return state_.get(); }
  PersistentStore* backing() { return cluster_->backing(); }

  // Hands a pressure hint for `block` (mapped as `id`) to the cluster's
  // background repartitioner (DESIGN.md §9), which re-validates it before
  // acting. Deduped per block: only the first flag until the worker drains
  // it enqueues a hint.
  void FlagPressure(Block* block, BlockId id, DsType type,
                    Repartitioner::Pressure pressure);

  // --- Chain replication (§4.2.2) -------------------------------------------

  // Applies `mutate` to each live replica of `entry` in chain order (the
  // caller already mutated the primary), charging one chain hop per
  // replica. Replicas whose content vanished are skipped — RepairEntry /
  // ReReplicate rebuild them.
  template <typename ContentT, typename Fn>
  void PropagateToReplicas(const PartitionEntry& entry, size_t bytes,
                           Fn&& mutate) {
    for (const BlockId& rid : entry.replicas) {
      Block* rb = Resolve(rid);
      if (rb == nullptr) {
        continue;
      }
      {
        Block::OpLock lock(*rb, "chain.block_wait");
        JIFFY_TRACE_SPAN("block.chain_apply", "block");
        auto* content = ContentAs<ContentT>(rb->content());
        if (content != nullptr) {
          mutate(content);
        }
      }
      // A chain hop whose retries all fail is tolerated: the replica is
      // repaired wholesale by RepairEntry / re-replication.
      DataExchange(rid, bytes + 64, 64);
    }
  }

  // Batched chain propagation: the caller applied a group of `n_ops`
  // mutations totalling `bytes` to the primary under one lock hold; each
  // replica receives the whole group as one coalesced chain hop.
  template <typename ContentT, typename Fn>
  void PropagateBatchToReplicas(const PartitionEntry& entry, size_t n_ops,
                                size_t bytes, Fn&& mutate) {
    if (n_ops == 0) {
      return;
    }
    for (const BlockId& rid : entry.replicas) {
      Block* rb = Resolve(rid);
      if (rb == nullptr) {
        continue;
      }
      {
        Block::OpLock lock(*rb, "chain.block_wait");
        JIFFY_TRACE_SPAN("block.chain_apply", "block");
        auto* content = ContentAs<ContentT>(rb->content());
        if (content != nullptr) {
          mutate(content);
        }
      }
      DataExchangeBatch(rid, n_ops, bytes + 64, 64);
    }
  }

  // Chain reads are served by the tail replica for strong consistency.
  BlockId ReadTarget(const PartitionEntry& entry) const {
    return entry.replicas.empty() ? entry.block : entry.replicas.back();
  }

  // Invoked when a block of `entry` turned out to be dead: asks the
  // controller to repair the chain (promote the first live replica) and
  // refreshes the map. kUnavailable when every replica is gone.
  Status FailOver(const PartitionEntry& entry);

  // Synchronous persistence (§4.2.2): when the prefix is configured with
  // persist_writes, writes through the just-mutated block to the external
  // store.
  void MaybePersist(const PartitionEntry& entry);

  // Bounded retries for the queue, file and custom clients' stale-metadata
  // loops; exceeding this indicates a livelock bug rather than routine
  // scaling. KvClient bounds its retries by the retry policy's op_deadline
  // (RetriesExpired); every loop backs off with BackoffRetry (retry.h).
  static constexpr int kMaxStaleRetries = 64;

 private:
  friend class OpScope;

  // Shared implementation of the fault-masked exchanges above.
  Status ExchangeWithRetry(Transport* net, uint32_t endpoint, size_t n_ops,
                           size_t req_bytes, size_t resp_bytes);

  // OpScope sink: labeled op/error counters + latency histogram + SLO.
  void RecordOp(DurationNs latency_ns, bool ok);

  // Installs `map` as the cached snapshot, building a KV map's slot index.
  void SetMap(PartitionMap map);

  mutable std::mutex map_mu_;
  std::shared_ptr<const MapSnapshot> map_;  // Guarded by map_mu_.

  JiffyCluster* cluster_;
  std::string job_;
  std::string prefix_;
  std::string tenant_;
  const char* kind_;
  std::shared_ptr<DsState> state_;
  RetryPolicy retry_policy_;
  // Backoff jitter; seeded from (job, prefix) so runs are reproducible.
  AtomicRng retry_rng_;

  // Per-tenant attribution, bound once at construction (the labeled
  // registry lookups intern the label set; the hot path only touches the
  // cached pointers).
  const char* tenant_attr_ = nullptr;
  obs::Counter* m_ops_ = nullptr;
  obs::Counter* m_errors_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_masked_ = nullptr;
  obs::Counter* m_req_bytes_ = nullptr;
  obs::Counter* m_resp_bytes_ = nullptr;
  Histogram* m_op_latency_ = nullptr;
  obs::SloMonitor::TenantState* slo_ = nullptr;
};

}  // namespace jiffy

#endif  // SRC_CLIENT_DS_CLIENT_H_
