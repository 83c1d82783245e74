// Jiffy unified control plane (§4.2.1, Fig 7).
//
// One Controller instance is one shard: it owns the address hierarchies of
// the jobs hashed to it, performs block allocation against the (shared)
// free-block list, tracks partition metadata for every data structure, and
// runs lease bookkeeping. Multiple shards scale the control plane across
// cores/servers by hash-partitioning jobs (Fig 12(b)); shards share the
// BlockAllocator, which is the only cross-shard state.
//
// Concurrency (DESIGN.md §8): within a shard, synchronization is two-level
// so requests for *different jobs never contend*:
//
//   1. `jobs_mu_` (std::shared_mutex) guards only the job table itself.
//      Job lookups take it shared; RegisterJob/DeregisterJob/Restore take
//      it exclusive. It is held only long enough to pin a JobSlot.
//   2. One std::mutex per JobSlot guards that job's entire hierarchy
//      (DAG, leases, partition maps). Every per-job operation — renewals,
//      map fetches, splits, flushes — runs under its job's mutex only.
//
// Cross-job passes (RunExpiryScan, Snapshot) quiesce one job at a time:
// they pin the slot list under the shared table lock, then visit jobs
// sequentially under each job's own mutex — never the whole world.
//
// Lock order (never acquired backwards):
//     jobs_mu_ (shared or exclusive) → JobSlot::mu → allocator shard lock
// ChargeOp's emulated service time burns CPU while holding no lock, and
// ControllerStats is per-field atomics, so the only serialization a request
// experiences is its own job's mutex.
//
// The data plane is reached through DataPlaneHooks so the controller never
// touches block contents directly — mirroring the paper's controller, which
// only exchanges signals and block addresses with memory servers (Fig 8).

#ifndef SRC_CORE_CONTROLLER_H_
#define SRC_CORE_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/config.h"
#include "src/common/status.h"
#include "src/core/allocator.h"
#include "src/core/hierarchy.h"
#include "src/core/meta_log.h"
#include "src/persistent/persistent_store.h"

namespace jiffy {

class SerdeReader;

// Controller → data plane callbacks. Implemented by the cluster assembly
// (src/cluster/), which knows how to reach MemoryServers and how each data
// structure initializes / serializes / restores block content.
class DataPlaneHooks {
 public:
  virtual ~DataPlaneHooks() = default;

  // Installs fresh content of `type` into block `id`, owning responsibility
  // range [lo, hi) (file offsets / queue segment index / KV hash slots).
  // `custom_type` names the registered implementation when type == kCustom.
  virtual Status InitBlock(BlockId id, DsType type, uint64_t lo, uint64_t hi,
                           const std::string& job, const std::string& prefix,
                           const std::string& custom_type = "") = 0;

  // Serializes block content for flushing to persistent storage.
  virtual Result<std::string> SerializeBlock(BlockId id) = 0;

  // Restores serialized content into a freshly allocated block.
  virtual Status RestoreBlock(BlockId id, DsType type,
                              const std::string& data, uint64_t lo,
                              uint64_t hi, const std::string& job,
                              const std::string& prefix,
                              const std::string& custom_type = "") = 0;

  // Drops content and marks the block unallocated.
  virtual Status ResetBlock(BlockId id) = 0;

  // True when the block's memory server is reachable. Default: always live
  // (control-plane-only tests).
  virtual bool IsBlockLive(BlockId id) {
    (void)id;
    return true;
  }
};

// Options for createAddrPrefix (Table 1 optionalArgs).
struct CreateOptions {
  // When set, a data structure is initialized immediately.
  bool init_ds = false;
  DsType ds_type = DsType::kFile;
  // Initial capacity in bytes; rounded up to whole blocks, min 1 block.
  uint64_t initial_capacity_bytes = 0;
  // Per-prefix lease override; 0 = system default.
  DurationNs lease_duration = 0;
  // Chain replication factor for this prefix's blocks (§4.2.2); 1 = off.
  uint32_t replication_factor = 1;
  // Synchronously persist every committed write to the external store
  // (§4.2.2), at address-prefix granularity.
  bool persist_writes = false;
  // Access control (Fig 7 "permissions"): restrict reads/writes to the
  // owning job's clients.
  bool world_readable = true;
  bool world_writable = true;
  // Registered implementation name when ds_type == kCustom.
  std::string custom_type;
};

struct ControllerStats {
  uint64_t ops = 0;                // Control-plane requests served.
  uint64_t lease_renewals = 0;     // Renewal requests (not fan-out count).
  uint64_t expiry_scans = 0;
  uint64_t prefixes_expired = 0;
  uint64_t blocks_reclaimed = 0;
  uint64_t blocks_allocated = 0;   // Cumulative.
  uint64_t bytes_flushed = 0;      // To persistent storage on expiry/flush.
  uint64_t overload_signals = 0;   // Fig 8 scale-up signals handled.
  uint64_t underload_signals = 0;
};

class Controller {
 public:
  // `allocator` is shared across shards; `hooks` and `backing` (persistent
  // store used on lease expiry and flushAddrPrefix) must outlive the
  // controller. `hooks` may be null in control-plane-only tests.
  Controller(const JiffyConfig& config, Clock* clock,
             std::shared_ptr<BlockAllocator> allocator, DataPlaneHooks* hooks,
             PersistentStore* backing);

  // Registers this shard's metrics under "controller.<shard_id>.*" in
  // `registry` and starts recording into them. Optional; never bound = no
  // recording (ControllerStats keeps working either way).
  void BindMetrics(obs::MetricsRegistry* registry, uint32_t shard_id);

  // --- Job lifecycle ------------------------------------------------------

  Status RegisterJob(const std::string& job_id);
  // Releases all blocks and metadata of the job.
  Status DeregisterJob(const std::string& job_id);
  bool HasJob(const std::string& job_id) const;

  // --- Address hierarchy (Table 1) ----------------------------------------

  // Creates prefix `name` under `parents` in `job` (empty parents = root).
  Status CreateAddrPrefix(const std::string& job, const std::string& name,
                          const std::vector<std::string>& parents,
                          const CreateOptions& opts = {});

  // Creates the whole hierarchy from an execution DAG (task, parents) list.
  Status CreateHierarchy(
      const std::string& job,
      const std::vector<std::pair<std::string, std::vector<std::string>>>& dag,
      const CreateOptions& opts = {});

  // Resolves a full path ("/job/T1/T5" etc.) to its job + node name,
  // validating DAG edges. Exposed for the client library.
  Status ValidatePath(const AddressPath& path);

  // --- Leases (§3.2) --------------------------------------------------------

  Result<DurationNs> GetLeaseDuration(const std::string& job,
                                      const std::string& prefix);
  // Renews `prefix` plus immediate parents and all descendants (Fig 5);
  // returns how many prefixes were renewed by this one request.
  //
  // A renewal only decides when data may be reclaimed, and expired data is
  // flushed before it is, so it is not durable state: with a log attached
  // the leader serves it locally under its read lease (kUnavailable on any
  // other replica) and appends no entry. A renewal lost with a deposed
  // leader is covered by RestartLeases on promotion (DESIGN.md §14).
  Result<uint64_t> RenewLease(const std::string& job,
                              const std::string& prefix);

  // One pass of the lease expiry worker: flushes and reclaims every prefix
  // whose lease has lapsed. Returns the number of prefixes reclaimed.
  // Driven by a LeaseExpiryWorker thread (real time) or directly by
  // trace-replay benches (virtual time). Quiesces one job at a time.
  uint64_t RunExpiryScan();

  // --- Data structures & partition metadata --------------------------------

  // Initializes a data structure under `prefix` and returns its block map.
  // `custom_type` selects the registered implementation for kCustom.
  Result<PartitionMap> InitDataStructure(const std::string& job,
                                         const std::string& prefix,
                                         DsType type,
                                         uint64_t initial_capacity_bytes = 0,
                                         const std::string& custom_type = "");

  // Current block map (clients call this on kStaleMetadata).
  Result<PartitionMap> GetPartitionMap(const std::string& job,
                                       const std::string& prefix);

  // Marks `prefix` as holding a data structure of `type` without allocating
  // any blocks — the shape LoadAddrPrefix expects when restoring a flushed
  // checkpoint into a fresh job (e.g. Piccolo restore, §5.3).
  Status PrepareForLoad(const std::string& job, const std::string& prefix,
                        DsType type);

  // Scale-up path (Fig 8): allocates a block for [lo, hi), initializes it at
  // the data plane, appends a partition entry, bumps the map version.
  Result<BlockId> AddBlock(const std::string& job, const std::string& prefix,
                           uint64_t lo, uint64_t hi);

  // Tail-conditional variant for append-style structures (queue/file):
  // fails with kFailedPrecondition when the current tail is no longer
  // `expected_tail` — i.e. another client already grew the structure — so
  // stale clients can never append a duplicate tail.
  Result<BlockId> AddBlockIfTail(const std::string& job,
                                 const std::string& prefix,
                                 BlockId expected_tail, uint64_t lo,
                                 uint64_t hi);

  // Shrinks/extends an existing entry's responsibility range (used by KV
  // split: the overloaded block hands the upper half of its slots to the new
  // block). Bumps version.
  Status UpdateEntryRange(const std::string& job, const std::string& prefix,
                          BlockId block, uint64_t lo, uint64_t hi);

  // Scale-down path: removes the entry, resets and frees the block.
  Status RemoveBlock(const std::string& job, const std::string& prefix,
                     BlockId block);

  // Two-phase repartitioning used by the KV split/merge (§3.3, Fig 8). The
  // new block is allocated and initialized but NOT yet published in the
  // partition map, so clients never route to it before its data arrives;
  // once the overloaded block has moved the affected pairs, CommitSplit
  // publishes the new ownership in a single version bump.
  Result<BlockId> AllocateUnmapped(const std::string& job,
                                   const std::string& prefix, uint64_t lo,
                                   uint64_t hi);
  // Atomically shrinks `old_block`'s range to [old_lo, old_hi) and maps
  // `new_entry`. Fails with kFailedPrecondition unless the source entry is
  // still inside a BeginMigration bracket, so a commit that raced a
  // failover repair (which may have cleared or never seen the bracket) is
  // refused instead of publishing a stale range.
  Status CommitSplit(const std::string& job, const std::string& prefix,
                     BlockId old_block, uint64_t old_lo, uint64_t old_hi,
                     const PartitionEntry& new_entry);
  // Atomically unmaps `removed` (resetting + freeing it) and extends
  // `sibling` to [sib_lo, sib_hi). Requires the bracket on the `removed`
  // source entry, as CommitSplit does.
  Status CommitMerge(const std::string& job, const std::string& prefix,
                     BlockId removed, BlockId sibling, uint64_t sib_lo,
                     uint64_t sib_hi);
  // Releases a block obtained via AllocateUnmapped when the move fails.
  Status AbortUnmapped(BlockId block);

  // Chunked-migration bracket (DESIGN.md §9). BeginMigration marks the
  // mapped entry owning `block` as migrating, which (a) defers lease-expiry
  // eviction of the prefix — evicting mid-move would flush half-moved state
  // and leak the unmapped destination — and (b) fails explicit flushes with
  // kFailedPrecondition (a merge target may hold foreign pairs for a range
  // it does not own yet). Fails with kFailedPrecondition when the entry is
  // already migrating (one migration per entry at a time). The mark is
  // cleared by CommitSplit/CommitMerge on success or EndMigration on abort.
  // Snapshot format v3 serializes it so a replicated standby promoted
  // mid-migration keeps deferring expiry until the migration commits or
  // aborts against the new leader; the cold-standby Restore() path clears
  // it instead (the old Repartitioner is gone — source keeps all data).
  Status BeginMigration(const std::string& job, const std::string& prefix,
                        BlockId block);
  Status EndMigration(const std::string& job, const std::string& prefix,
                      BlockId block);

  // --- Replication & fault handling (§4.2.2) --------------------------------

  // Repairs the partition entry containing `hint` after a memory-server
  // failure: the first live block in chain order becomes the primary, dead
  // blocks are dropped from the chain, and the map version bumps. Returns
  // kUnavailable when no replica of the entry survived (the data must be
  // reloaded from the persistent tier).
  Status RepairEntry(const std::string& job, const std::string& prefix,
                     BlockId hint);

  // Restores each entry of `prefix` to its configured replication factor by
  // allocating fresh replicas and copying the primary's content. Returns
  // the number of replicas created.
  Result<uint32_t> ReReplicate(const std::string& job,
                               const std::string& prefix);

  // Marks a memory server dead: its free blocks leave the pool and future
  // placements avoid it.
  void MarkServerDead(uint32_t server_id);

  // Eager metadata repair after a memory-server failure (invoked by the
  // cluster's FailServer on every shard). Walks every job's partition maps
  // and repairs each entry that had a chain member on `server_id`: the first
  // live chain member is promoted to primary, dead members are dropped, and
  // — unless the entry is mid-migration — fresh replicas are allocated and
  // filled from the new primary to restore the configured chain length.
  // Entries whose whole chain died are flagged `lost` so later repairs fail
  // fast until the prefix is reloaded from the persistent tier. Returns the
  // number of entries touched.
  uint64_t HandleServerFailure(uint32_t server_id);

  // --- Access control (Fig 7) ------------------------------------------------

  // Enforced on data-plane metadata fetches: `principal` is the job id the
  // client authenticated as.
  Result<PartitionMap> GetPartitionMapAs(const std::string& principal,
                                         const std::string& job,
                                         const std::string& prefix,
                                         bool for_write);

  // Queue-only: advances the head segment index after a segment drains.
  Status SetQueueHead(const std::string& job, const std::string& prefix,
                      uint32_t head_index);

  // --- Linearizable Cas on the metadata path (DESIGN.md §14) ----------------

  // Compare-and-swap of the small metadata tag `key` on `prefix`: if the
  // tag's current value equals `expected` (an absent tag reads as ""), it
  // is set to `desired`. Returns the *witnessed previous value* plus
  // whether the swap applied, so callers decide success by inspection —
  // the RSM-client shape. (`client_id`, `seq`) make retries exactly-once:
  // a re-sent sequence number returns the recorded response instead of
  // re-applying, and the replay table replicates with the job, so the
  // guarantee holds across controller failover.
  struct CasResult {
    std::string previous;
    bool applied = false;
  };
  Result<CasResult> CasTag(const std::string& job, const std::string& prefix,
                           const std::string& key, const std::string& expected,
                           const std::string& desired,
                           const std::string& client_id, uint64_t seq);

  // --- Flush / load (Table 1) ----------------------------------------------

  // Serializes the prefix's blocks to `external_path` on the backing store
  // (blocks stay allocated — this is a checkpoint, not an eviction).
  Status FlushAddrPrefix(const std::string& job, const std::string& prefix,
                         const std::string& external_path);

  // Loads a previously flushed/expired prefix back into freshly allocated
  // memory blocks and revives its lease.
  Status LoadAddrPrefix(const std::string& job, const std::string& prefix,
                        const std::string& external_path);

  // --- Fault tolerance (§4.2.1) ----------------------------------------------
  //
  // The paper adopts primary-backup mechanisms from prior work at each
  // controller server. Here that is realized as full-state checkpointing:
  // Snapshot() serializes every job hierarchy (nodes, leases, permissions,
  // partition maps with replica chains); Restore() rebuilds an empty
  // standby controller to the exact same state against the SAME data plane
  // — no blocks move, only metadata. A primary can stream snapshots to its
  // backup (e.g. per lease-scan period), and the backup promotes by simply
  // starting to serve.

  // Serializes the complete control-plane state. Quiesces one job at a time
  // (each job's state is internally consistent; jobs deregistered while the
  // snapshot runs are omitted, jobs registered meanwhile may be missed —
  // the same guarantee a streaming primary gives its backup). For a
  // snapshot that is consistent *across* jobs, call through the RSM layer:
  // it invokes the applied-index overload below while holding the submit
  // lock, so no replicated mutation is in flight anywhere.
  std::string Snapshot() const { return Snapshot(0); }

  // Same, stamped with the metadata-log index the snapshot covers (format
  // v3 header). The plain Snapshot() stamps 0 ("no log attached").
  std::string Snapshot(uint64_t applied_index) const;

  // Peeks the applied-index stamp of a v3 snapshot (0 for any other bytes).
  static uint64_t SnapshotAppliedIndex(const std::string& snapshot);

  // Rebuilds state from a snapshot. Precondition: no jobs registered yet
  // (fresh standby). Snapshots live only in memory and only format v3 is
  // written, so any other version fails with kInvalidArgument. Does not
  // touch the data plane. `preserve_migrating` keeps serialized in-flight
  // migration brackets — the RSM materialization path passes true because
  // the shared Repartitioner survives a leader change and will complete or
  // abort the move against the promoted controller; a cold standby keeps
  // the default false, which drops the brackets (its Repartitioner is gone,
  // the source still owns all data) so expiry/flush can never be blocked
  // forever. All memoized renewal fan-out plans are invalidated either way.
  Status Restore(const std::string& snapshot, bool preserve_migrating = false);

  // --- Replicated-log integration (src/rsm/, DESIGN.md §14) -----------------
  //
  // These entry points exist for the RSM layer; they are not part of the
  // client-facing API.

  // Routes every subsequent mutating operation through `log` (leader
  // executes + captures job blobs + quorum-commits; see MetadataLog) and
  // gates lookup paths and lease renewals on the leader read lease. Null
  // detaches.
  void AttachMetadataLog(MetadataLog* log) { meta_log_ = log; }
  MetadataLog* metadata_log() const { return meta_log_; }

  // Serializes one job's complete metadata (the v3 per-job snapshot
  // section). Empty string when the job is not registered — the log's
  // "job dropped" marker.
  std::string CaptureJob(const std::string& job) const;

  // Installs a blob from CaptureJob, replacing (or creating) the job's
  // entire metadata state; an empty blob drops the job. Pure metadata swap:
  // never touches the data plane or the allocator, which is what makes
  // follower apply deterministic and free of double-allocation.
  Status InstallJobBlob(const std::string& job, const std::string& blob);

  // Registered job ids in deterministic order.
  std::vector<std::string> JobIds() const;

  // Packed ids of every block a job's metadata references (primaries +
  // replica chains). The RSM rollback path diffs these across a failed
  // speculative execution to find blocks that must be returned to the pool.
  std::vector<uint64_t> JobBlockRefs(const std::string& job) const;

  // Resets (if live) and frees the given packed block ids. Used by RSM
  // rollback (speculatively allocated blocks of an uncommitted entry) and
  // crash-time orphan reclamation.
  void ReleaseBlocksById(const std::vector<uint64_t>& packed);

  // Performs block releases that a replicated operation deferred until
  // quorum commit (see ReplicatedApplyScope).
  void PerformDeferredFrees(const std::vector<BlockId>& blocks);

  // Drops all job metadata without touching the data plane, returning the
  // controller to the fresh state Restore requires. Promotion re-
  // materializes a (possibly stale) replica: clear, restore the latest
  // snapshot, then install the latest committed blob per job.
  void ResetMetadata();

  // Invalidates every job's memoized renewal fan-out plans. Called on
  // leader change so a promoted replica can never stamp a pre-failover
  // plan (Restore/InstallJobBlob invalidate implicitly by rebuilding).
  void InvalidateRenewalPlans();

  // Raises every lease stamp to at least `at`. Called on promotion with the
  // new leader's first leased-read instant: renewals are not logged, and
  // one a deposed leader acknowledged was stamped inside its read lease,
  // which ends no later than `at`. So a lost renewal only delays
  // reclamation; it never makes data reclaimable sooner.
  void RestartLeases(TimeNs at);

  // Clears every in-flight migration bracket (the cold-standby promotion
  // path, where the Repartitioner that owned the bracket is gone).
  void AbortInFlightMigrations();

  // RAII bracket the RSM layer holds while re-invoking a controller method
  // as the replicated `fn`: suppresses re-replication (the thread is
  // already inside Replicate) and defers destructive block frees into
  // `deferred` so a failed quorum can roll back without having destroyed
  // block contents the committed metadata still references.
  class ReplicatedApplyScope {
   public:
    explicit ReplicatedApplyScope(std::vector<BlockId>* deferred);
    ~ReplicatedApplyScope();
    ReplicatedApplyScope(const ReplicatedApplyScope&) = delete;
    ReplicatedApplyScope& operator=(const ReplicatedApplyScope&) = delete;
  };

  // --- Introspection --------------------------------------------------------

  ControllerStats Stats() const;
  // Bytes of control-plane metadata for `job` (§6.4 accounting).
  Result<size_t> JobMetadataBytes(const std::string& job);
  uint32_t AllocatedBlocks() const { return allocator_->allocated_count(); }
  std::shared_ptr<BlockAllocator> allocator() { return allocator_; }
  const JiffyConfig& config() const { return config_; }

  // Is `prefix`'s lease currently expired (data on persistent tier)?
  Result<bool> IsExpired(const std::string& job, const std::string& prefix);

 private:
  // One registered job: its hierarchy plus the mutex that serializes all
  // operations touching it. Held by shared_ptr so an in-flight request can
  // keep the slot alive while DeregisterJob removes it from the table; the
  // `defunct` flag (set under `mu`) tells such stragglers the job is gone.
  struct JobSlot {
    JobSlot(std::string job_id, TimeNs now, DurationNs lease,
            LeasePropagation propagation)
        : hier(std::move(job_id), now, lease, propagation) {}
    mutable std::mutex mu;
    bool defunct = false;  // guarded by mu
    JobHierarchy hier;     // guarded by mu
  };

  // RAII pin of one job: holds the slot shared_ptr and its locked mutex.
  class LockedJob {
   public:
    LockedJob() = default;
    LockedJob(std::shared_ptr<JobSlot> slot, std::unique_lock<std::mutex> lock)
        : slot_(std::move(slot)), lock_(std::move(lock)) {}
    JobHierarchy* hier() const { return &slot_->hier; }

   private:
    std::shared_ptr<JobSlot> slot_;
    std::unique_lock<std::mutex> lock_;
  };

  // Pins and locks `job`: shared table lock to find the slot, then the
  // per-job mutex. Fails with kNotFound when the job is unknown or was
  // deregistered while we waited for its mutex — or with kUnavailable
  // instead when a log is attached and this replica has lost the read
  // lease (a demotion drops every job mid-call).
  Result<LockedJob> LockJob(const std::string& job) const;

  // Pins every current job (shared table lock only), in deterministic job-id
  // order, for sequential per-job passes (expiry scan, snapshot).
  std::vector<std::shared_ptr<JobSlot>> PinAllJobs() const;

  // Mirrors ControllerStats with per-field atomics so no request ever takes
  // a stats lock.
  struct AtomicStats {
    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> lease_renewals{0};
    std::atomic<uint64_t> expiry_scans{0};
    std::atomic<uint64_t> prefixes_expired{0};
    std::atomic<uint64_t> blocks_reclaimed{0};
    std::atomic<uint64_t> blocks_allocated{0};
    std::atomic<uint64_t> bytes_flushed{0};
    std::atomic<uint64_t> overload_signals{0};
    std::atomic<uint64_t> underload_signals{0};
  };

  // Emulates per-request control-plane service time when configured
  // (busy-wait, so multi-shard throughput scaling is CPU-bound as in Fig 12).
  // Runs while holding no lock.
  void ChargeOp();

  // Allocates, initializes, maps and replicates one block for `node`
  // (scale-up path shared by AddBlock / AddBlockIfTail). Job lock held.
  Result<BlockId> AddBlockLocked(TaskNode* node, const std::string& job,
                                 const std::string& prefix, uint64_t lo,
                                 uint64_t hi);

  // Flush + reclaim one node (job lock held). `evict` controls whether
  // blocks are freed (lease expiry) or kept (explicit flush).
  Status FlushNodeLocked(JobHierarchy* hier, TaskNode* node,
                         const std::string& external_path, bool evict);

  // Allocates and initializes chain replicas for `entry` until it reaches
  // the node's replication factor, copying the primary's content when
  // `copy_primary` (repair path). Replicas avoid the servers already used
  // by the entry. Job lock held.
  Status FillReplicasLocked(TaskNode* node, PartitionEntry* entry,
                            const std::string& job, const std::string& prefix,
                            bool copy_primary);

  // Resets (if live) and frees one block, tolerating dead servers. Inside a
  // ReplicatedApplyScope the free is recorded instead of performed (it runs
  // after quorum commit, or never if the entry rolls back).
  void ReleaseBlockLocked(BlockId id);

  // True when the next mutating call must be routed through meta_log_
  // (a log is attached and this thread is not already inside Replicate).
  bool ShouldReplicate() const;

  // Status/Result/count wrappers around meta_log_->Replicate (see the
  // preamble each mutating method starts with).
  template <typename Fn>
  Status ReplicateOp(const char* op, std::vector<std::string> jobs, Fn&& fn) {
    return meta_log_->Replicate(op, std::move(jobs),
                                [&fn]() -> Status { return fn(); });
  }
  template <typename T, typename Fn>
  Result<T> ReplicateResult(const char* op, std::vector<std::string> jobs,
                            Fn&& fn) {
    Result<T> out = Internal("replicated op never executed");
    Status st = meta_log_->Replicate(op, std::move(jobs), [&]() -> Status {
      out = fn();
      return out.status();
    });
    if (!st.ok()) {
      return st;
    }
    return out;
  }
  template <typename Fn>
  uint64_t ReplicateCount(const char* op, Fn&& fn) {
    uint64_t out = 0;
    // Cross-job sweeps pass an empty job list = "all registered jobs".
    Status st = meta_log_->Replicate(op, {}, [&]() -> Status {
      out = fn();
      return Status::Ok();
    });
    return st.ok() ? out : 0;
  }

  // kUnavailable (with a leader hint) when a log is attached and this
  // replica does not hold the leader read lease; lookup paths serve only
  // when this passes, so a deposed controller can never return stale maps.
  Status CheckReadLease() const;

  // Serializes one job's state as a v3 snapshot section, job id included
  // (job mutex held by the caller).
  static void SerializeJobLocked(const JobHierarchy& hier, std::string* blob);

  // Parses one v3 per-job snapshot section (job id first) into a fresh
  // JobSlot. `preserve_migrating` keeps migration brackets.
  Result<std::shared_ptr<JobSlot>> ParseJobSection(
      SerdeReader* reader, bool preserve_migrating) const;

  std::string OwnerTag(const std::string& job, const std::string& prefix) const {
    return job + "/" + prefix;
  }
  std::string DefaultFlushPath(const std::string& job,
                               const std::string& prefix) const {
    return "jiffy/" + job + "/" + prefix;
  }

  JiffyConfig config_;
  Clock* clock_;
  std::shared_ptr<BlockAllocator> allocator_;
  DataPlaneHooks* hooks_;
  PersistentStore* backing_;
  // Replicated metadata log (null = standalone controller, the default).
  MetadataLog* meta_log_ = nullptr;

  // Level 1: the job table (see the locking hierarchy at the top of this
  // file). std::map keeps PinAllJobs/Snapshot order deterministic.
  mutable std::shared_mutex jobs_mu_;
  std::map<std::string, std::shared_ptr<JobSlot>> jobs_;

  AtomicStats stats_;

  // Observability (null until BindMetrics). Mirrors ControllerStats but is
  // exported through the cluster-wide MetricsRegistry per shard.
  obs::Counter* m_ops_ = nullptr;
  obs::Counter* m_lease_renewals_ = nullptr;
  obs::Counter* m_lease_fanout_ = nullptr;
  obs::Counter* m_expiry_scans_ = nullptr;
  obs::Counter* m_prefixes_expired_ = nullptr;
  obs::Counter* m_blocks_allocated_ = nullptr;
  obs::Counter* m_blocks_reclaimed_ = nullptr;
  obs::Counter* m_bytes_flushed_ = nullptr;
  obs::Counter* m_splits_ = nullptr;
  obs::Counter* m_merges_ = nullptr;
  Histogram* m_renew_ns_ = nullptr;
  Histogram* m_alloc_block_ns_ = nullptr;
  // Kept for per-tenant attribution of block allocations (labeled counter
  // lookups happen on the rare allocation path, never per data-plane op).
  obs::MetricsRegistry* registry_ = nullptr;

  // Labeled "ctl.blocks_allocated_total{tenant,job,kind}" bump; no-op until
  // BindMetrics.
  void CountAllocation(const std::string& job, DsType type, uint64_t n);
};

}  // namespace jiffy

#endif  // SRC_CORE_CONTROLLER_H_
