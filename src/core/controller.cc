#include "src/core/controller.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/obs/trace.h"

namespace jiffy {

namespace {

// Set while this thread executes a controller method as the `fn` of a
// MetadataLog::Replicate call: mutating entry points skip their replication
// preamble (the op is already being logged) and lookup paths skip the read-
// lease gate (the leader is executing on its own behalf).
thread_local bool tls_replicated_apply = false;

// Non-null inside a ReplicatedApplyScope: destructive block frees are
// recorded here instead of performed, so a failed quorum can roll the
// metadata back to blobs that still reference those blocks.
thread_local std::vector<BlockId>* tls_deferred_frees = nullptr;

}  // namespace

Controller::ReplicatedApplyScope::ReplicatedApplyScope(
    std::vector<BlockId>* deferred) {
  tls_replicated_apply = true;
  tls_deferred_frees = deferred;
}

Controller::ReplicatedApplyScope::~ReplicatedApplyScope() {
  tls_replicated_apply = false;
  tls_deferred_frees = nullptr;
}

bool Controller::ShouldReplicate() const {
  return meta_log_ != nullptr && !tls_replicated_apply;
}

Status Controller::CheckReadLease() const {
  if (meta_log_ == nullptr || tls_replicated_apply ||
      meta_log_->MayServeReads()) {
    return Status::Ok();
  }
  return Unavailable("not the metadata leader (leader hint: replica " +
                     std::to_string(meta_log_->LeaderHint()) + ")");
}

Controller::Controller(const JiffyConfig& config, Clock* clock,
                       std::shared_ptr<BlockAllocator> allocator,
                       DataPlaneHooks* hooks, PersistentStore* backing)
    : config_(config),
      clock_(clock),
      allocator_(std::move(allocator)),
      hooks_(hooks),
      backing_(backing) {}

void Controller::BindMetrics(obs::MetricsRegistry* registry,
                             uint32_t shard_id) {
  const std::string ns = "controller." + std::to_string(shard_id) + ".";
  m_ops_ = registry->GetCounter(ns + "ops_total");
  m_lease_renewals_ = registry->GetCounter(ns + "lease_renewals_total");
  m_lease_fanout_ = registry->GetCounter(ns + "lease_renewal_fanout_total");
  m_expiry_scans_ = registry->GetCounter(ns + "expiry_scans_total");
  m_prefixes_expired_ = registry->GetCounter(ns + "prefixes_expired_total");
  m_blocks_allocated_ = registry->GetCounter(ns + "blocks_allocated_total");
  m_blocks_reclaimed_ = registry->GetCounter(ns + "blocks_reclaimed_total");
  m_bytes_flushed_ = registry->GetCounter(ns + "bytes_flushed_total");
  m_splits_ = registry->GetCounter(ns + "repartition_splits_total");
  m_merges_ = registry->GetCounter(ns + "repartition_merges_total");
  m_renew_ns_ = registry->GetHistogram(ns + "renew_ns");
  m_alloc_block_ns_ = registry->GetHistogram(ns + "alloc_block_ns");
  registry_ = registry;
}

void Controller::CountAllocation(const std::string& job, DsType type,
                                 uint64_t n) {
  if (registry_ == nullptr || !obs::Enabled()) {
    return;
  }
  const char* kind = "custom";
  switch (type) {
    case DsType::kFile:
      kind = "file";
      break;
    case DsType::kQueue:
      kind = "queue";
      break;
    case DsType::kKvStore:
      kind = "kv";
      break;
    case DsType::kCustom:
      break;
  }
  const obs::TenantLabels labels{obs::TenantOf(job), job, kind};
  obs::Inc(registry_->GetCounter("ctl.blocks_allocated_total", labels), n);
}

void Controller::ChargeOp() {
  obs::Inc(m_ops_);
  stats_.ops.fetch_add(1, std::memory_order_relaxed);
  if (config_.controller_service_time > 0) {
    if (config_.controller_service_sleeps) {
      RealClock::Instance()->SleepFor(config_.controller_service_time);
    } else {
      // Busy-wait so emulated service time consumes a core, making
      // multi-shard scaling CPU-bound as in the real system. Holds no lock,
      // so concurrent requests for different jobs burn cores in parallel.
      const TimeNs start = RealClock::Instance()->Now();
      while (RealClock::Instance()->Now() - start <
             config_.controller_service_time) {
      }
    }
  }
}

Result<Controller::LockedJob> Controller::LockJob(
    const std::string& job) const {
  std::shared_ptr<JobSlot> slot;
  {
    std::shared_lock<std::shared_mutex> table(jobs_mu_);
    auto it = jobs_.find(job);
    if (it == jobs_.end()) {
      // A replica demoted mid-call has dropped every job: it must answer
      // like any non-leader, so the client re-resolves instead of failing.
      JIFFY_RETURN_IF_ERROR(CheckReadLease());
      return NotFound("job '" + job + "' is not registered");
    }
    slot = it->second;
  }
  // Lock order: the table lock is released before the job mutex blocks, so
  // a long-running job operation never stalls lookups of other jobs.
  std::unique_lock<std::mutex> lock(slot->mu);
  if (slot->defunct) {
    JIFFY_RETURN_IF_ERROR(CheckReadLease());
    return NotFound("job '" + job + "' is not registered");
  }
  return LockedJob(std::move(slot), std::move(lock));
}

std::vector<std::shared_ptr<Controller::JobSlot>> Controller::PinAllJobs()
    const {
  std::vector<std::shared_ptr<JobSlot>> slots;
  std::shared_lock<std::shared_mutex> table(jobs_mu_);
  slots.reserve(jobs_.size());
  for (const auto& [job_id, slot] : jobs_) {
    (void)job_id;
    slots.push_back(slot);
  }
  return slots;
}

Status Controller::RegisterJob(const std::string& job_id) {
  if (ShouldReplicate()) {
    return ReplicateOp("RegisterJob", {job_id},
                       [&] { return RegisterJob(job_id); });
  }
  ChargeOp();
  if (!IsValidPathSegment(job_id)) {
    return InvalidArgument("bad job id '" + job_id + "'");
  }
  std::unique_lock<std::shared_mutex> table(jobs_mu_);
  if (jobs_.count(job_id) > 0) {
    return AlreadyExists("job '" + job_id + "' already registered");
  }
  jobs_.emplace(job_id, std::make_shared<JobSlot>(
                            job_id, clock_->Now(), config_.lease_duration,
                            config_.lease_propagation));
  return Status::Ok();
}

Status Controller::DeregisterJob(const std::string& job_id) {
  if (ShouldReplicate()) {
    return ReplicateOp("DeregisterJob", {job_id},
                       [&] { return DeregisterJob(job_id); });
  }
  ChargeOp();
  std::shared_ptr<JobSlot> slot;
  {
    std::unique_lock<std::shared_mutex> table(jobs_mu_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return NotFound("job '" + job_id + "' is not registered");
    }
    slot = std::move(it->second);
    jobs_.erase(it);
  }
  // The job is no longer routable; quiesce in-flight requests (they hold the
  // job mutex) and release every block it still holds. Requests that pinned
  // the slot before the erase see `defunct` and fail with kNotFound.
  std::lock_guard<std::mutex> lock(slot->mu);
  slot->defunct = true;
  for (const auto& name : slot->hier.NodeNames()) {
    auto node_r = slot->hier.GetNode(name);
    if (!node_r.ok()) {
      continue;
    }
    TaskNode* node = *node_r;
    for (const auto& entry : node->partition.entries) {
      ReleaseBlockLocked(entry.block);
      for (const BlockId& r : entry.replicas) {
        ReleaseBlockLocked(r);
      }
    }
    node->partition.entries.clear();
  }
  return Status::Ok();
}

bool Controller::HasJob(const std::string& job_id) const {
  std::shared_lock<std::shared_mutex> table(jobs_mu_);
  return jobs_.count(job_id) > 0;
}

Status Controller::CreateAddrPrefix(const std::string& job,
                                    const std::string& name,
                                    const std::vector<std::string>& parents,
                                    const CreateOptions& opts) {
  if (ShouldReplicate()) {
    return ReplicateOp("CreateAddrPrefix", {job}, [&] {
      return CreateAddrPrefix(job, name, parents, opts);
    });
  }
  JIFFY_TRACE_SPAN("ctl.create_prefix", "control");
  ChargeOp();
  {
    JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
    JIFFY_RETURN_IF_ERROR(locked.hier()->CreateNode(name, parents,
                                                    clock_->Now(),
                                                    opts.lease_duration));
    JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(name));
    node->replication_factor = std::max<uint32_t>(opts.replication_factor, 1);
    node->persist_writes = opts.persist_writes;
    node->perms.world_readable = opts.world_readable;
    node->perms.world_writable = opts.world_writable;
  }
  if (opts.init_ds) {
    auto map = InitDataStructure(job, name, opts.ds_type,
                                 opts.initial_capacity_bytes,
                                 opts.custom_type);
    if (!map.ok()) {
      return map.status();
    }
  }
  return Status::Ok();
}

Status Controller::CreateHierarchy(
    const std::string& job,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& dag,
    const CreateOptions& opts) {
  if (ShouldReplicate()) {
    return ReplicateOp("CreateHierarchy", {job},
                       [&] { return CreateHierarchy(job, dag, opts); });
  }
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  return locked.hier()->CreateFromDag(dag, clock_->Now(), opts.lease_duration);
}

Status Controller::ValidatePath(const AddressPath& path) {
  JIFFY_RETURN_IF_ERROR(CheckReadLease());
  ChargeOp();
  if (path.depth() < 2) {
    return InvalidArgument("path must be /job/task...: " + path.ToString());
  }
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(path.job()));
  std::vector<std::string> rest(path.segments().begin() + 1,
                                path.segments().end());
  auto node = locked.hier()->Resolve(AddressPath::FromSegments(std::move(rest)));
  if (!node.ok()) {
    return node.status();
  }
  return Status::Ok();
}

Result<DurationNs> Controller::GetLeaseDuration(const std::string& job,
                                                const std::string& prefix) {
  JIFFY_RETURN_IF_ERROR(CheckReadLease());
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  return node->lease_duration;
}

Result<uint64_t> Controller::RenewLease(const std::string& job,
                                        const std::string& prefix) {
  JIFFY_TRACE_SPAN("ctl.renew_lease", "control");
  obs::ScopedTimer timer(m_renew_ns_);
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  // The stamp is read before the read-lease gate, so a renewal is only
  // acknowledged when its stamp lies inside this leader's lease — and a
  // successor restarts every lease at or after that lease ends
  // (RestartLeases), however long the wait for the job mutex was.
  const TimeNs now = clock_->Now();
  JIFFY_RETURN_IF_ERROR(CheckReadLease());
  JIFFY_ASSIGN_OR_RETURN(const std::vector<std::string>* renewed,
                         locked.hier()->RenewLease(prefix, now));
  obs::Inc(m_lease_renewals_);
  obs::Inc(m_lease_fanout_, renewed->size());
  stats_.lease_renewals.fetch_add(1, std::memory_order_relaxed);
  return static_cast<uint64_t>(renewed->size());
}

uint64_t Controller::RunExpiryScan() {
  if (ShouldReplicate()) {
    // Cross-job sweep: the entry captures every job. A follower's expiry
    // worker lands here, gets kUnavailable from the log, and reports 0 —
    // only the leader expires leases.
    return ReplicateCount("RunExpiryScan", [&] { return RunExpiryScan(); });
  }
  JIFFY_TRACE_SPAN("ctl.expiry_scan", "control");
  ChargeOp();
  const TimeNs now = clock_->Now();
  uint64_t reclaimed = 0;
  // Quiesce one job at a time: pin the current job list, then visit each
  // under its own mutex so live traffic to other jobs keeps flowing.
  for (const auto& slot : PinAllJobs()) {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->defunct) {
      continue;
    }
    JobHierarchy* hier = &slot->hier;
    for (const auto& name : hier->CollectExpired(now)) {
      auto node_r = hier->GetNode(name);
      if (!node_r.ok()) {
        continue;
      }
      TaskNode* node = *node_r;
      // Defer prefixes with a chunked migration in flight to the next scan
      // (FlushNodeLocked would refuse anyway; see BeginMigration) — the
      // migration finishes in milliseconds, the scan period is much longer.
      bool migrating = false;
      for (const PartitionEntry& e : node->partition.entries) {
        migrating = migrating || e.migrating;
      }
      if (migrating) {
        continue;
      }
      // Flush to persistent storage before reclaiming so data survives even
      // a spurious expiry (§3.2: "the data is not lost").
      Status st = FlushNodeLocked(hier, node,
                                  DefaultFlushPath(hier->job_id(), name),
                                  /*evict=*/true);
      if (!st.ok()) {
        JIFFY_LOG(WARNING) << "expiry flush failed for " << hier->job_id()
                           << "/" << name << ": " << st;
        continue;
      }
      node->expired = true;
      reclaimed++;
    }
  }
  obs::Inc(m_expiry_scans_);
  obs::Inc(m_prefixes_expired_, reclaimed);
  stats_.expiry_scans.fetch_add(1, std::memory_order_relaxed);
  stats_.prefixes_expired.fetch_add(reclaimed, std::memory_order_relaxed);
  return reclaimed;
}

void Controller::ReleaseBlockLocked(BlockId id) {
  if (tls_deferred_frees != nullptr) {
    // Inside a replicated operation: record the free, perform it only once
    // the entry quorum-commits (PerformDeferredFrees). Until then the block
    // keeps its content, so a rollback to the pre-op blobs — which still
    // reference it — leaves a fully consistent world.
    tls_deferred_frees->push_back(id);
    return;
  }
  if (hooks_ != nullptr && hooks_->IsBlockLive(id)) {
    hooks_->ResetBlock(id);
  }
  allocator_->Free(id);
  obs::Inc(m_blocks_reclaimed_);
  stats_.blocks_reclaimed.fetch_add(1, std::memory_order_relaxed);
}

void Controller::PerformDeferredFrees(const std::vector<BlockId>& blocks) {
  for (const BlockId& id : blocks) {
    if (hooks_ != nullptr && hooks_->IsBlockLive(id)) {
      hooks_->ResetBlock(id);
    }
    allocator_->Free(id);
    obs::Inc(m_blocks_reclaimed_);
    stats_.blocks_reclaimed.fetch_add(1, std::memory_order_relaxed);
  }
}

Status Controller::FillReplicasLocked(TaskNode* node, PartitionEntry* entry,
                                      const std::string& job,
                                      const std::string& prefix,
                                      bool copy_primary) {
  while (1 + entry->replicas.size() < node->replication_factor) {
    // Spread the chain across servers: avoid every server the entry already
    // touches.
    std::vector<uint32_t> avoid = {entry->block.server_id};
    for (const BlockId& r : entry->replicas) {
      avoid.push_back(r.server_id);
    }
    JIFFY_ASSIGN_OR_RETURN(
        BlockId replica,
        allocator_->AllocateAvoiding(OwnerTag(job, prefix), avoid));
    Status st = Status::Ok();
    if (hooks_ != nullptr) {
      if (copy_primary) {
        auto data = hooks_->SerializeBlock(entry->block);
        if (data.ok()) {
          st = hooks_->RestoreBlock(replica, node->partition.type, *data,
                                    entry->lo, entry->hi, job, prefix,
                                    node->partition.custom_type);
        } else {
          st = data.status();
        }
      } else {
        st = hooks_->InitBlock(replica, node->partition.type, entry->lo,
                               entry->hi, job, prefix,
                               node->partition.custom_type);
      }
    }
    if (!st.ok()) {
      allocator_->Free(replica);
      return st;
    }
    entry->replicas.push_back(replica);
    node->blocks_ever_allocated++;
    obs::Inc(m_blocks_allocated_);
    stats_.blocks_allocated.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status Controller::FlushNodeLocked(JobHierarchy* hier, TaskNode* node,
                                   const std::string& external_path,
                                   bool evict) {
  (void)hier;
  if (!node->has_ds) {
    return Status::Ok();  // Nothing stored under this prefix.
  }
  // A chunked migration in flight makes the mapped state non-serializable:
  // a merge target may hold foreign pairs for a range it does not own yet,
  // and evicting would leak the unmapped destination block. Callers defer
  // (expiry scan) or fail (explicit flush) and retry after the migration.
  for (const PartitionEntry& entry : node->partition.entries) {
    if (entry.migrating) {
      return FailedPrecondition("migration in flight under this prefix");
    }
  }
  for (size_t i = 0; i < node->partition.entries.size(); ++i) {
    const PartitionEntry& entry = node->partition.entries[i];
    std::string data;
    if (hooks_ != nullptr && backing_ != nullptr) {
      // Serialize from the primary, falling back to a live replica when the
      // primary's server failed.
      BlockId source = entry.block;
      if (!hooks_->IsBlockLive(source)) {
        bool found = false;
        for (const BlockId& r : entry.replicas) {
          if (hooks_->IsBlockLive(r)) {
            source = r;
            found = true;
            break;
          }
        }
        if (!found) {
          return Unavailable("no live replica to flush for block " +
                             entry.block.ToString());
        }
      }
      auto ser = hooks_->SerializeBlock(source);
      if (!ser.ok()) {
        return ser.status();
      }
      data = std::move(*ser);
      // Record entry metadata alongside so LoadAddrPrefix can rebuild the
      // partition map: "<lo> <hi>\n<payload>".
      std::string object = std::to_string(entry.lo) + " " +
                           std::to_string(entry.hi) + "\n" + data;
      JIFFY_RETURN_IF_ERROR(
          backing_->Put(external_path + "/" + std::to_string(i),
                        std::move(object)));
      obs::Inc(m_bytes_flushed_, data.size());
      stats_.bytes_flushed.fetch_add(data.size(), std::memory_order_relaxed);
    }
    if (evict) {
      ReleaseBlockLocked(entry.block);
      for (const BlockId& r : entry.replicas) {
        ReleaseBlockLocked(r);
      }
    }
  }
  if (evict) {
    node->partition.entries.clear();
    node->partition.version++;
  }
  return Status::Ok();
}

Result<PartitionMap> Controller::InitDataStructure(
    const std::string& job, const std::string& prefix, DsType type,
    uint64_t initial_capacity_bytes, const std::string& custom_type) {
  if (ShouldReplicate()) {
    return ReplicateResult<PartitionMap>("InitDataStructure", {job}, [&] {
      return InitDataStructure(job, prefix, type, initial_capacity_bytes,
                               custom_type);
    });
  }
  JIFFY_TRACE_SPAN("ctl.init_ds", "control");
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  if (node->has_ds) {
    return AlreadyExists("data structure already initialized under '" +
                         prefix + "'");
  }
  uint32_t initial_blocks = static_cast<uint32_t>(
      (initial_capacity_bytes + config_.block_size_bytes - 1) /
      config_.block_size_bytes);
  initial_blocks = std::max<uint32_t>(initial_blocks, 1);

  JIFFY_ASSIGN_OR_RETURN(
      std::vector<BlockId> blocks,
      allocator_->AllocateN(OwnerTag(job, prefix), initial_blocks));

  PartitionMap map;
  map.type = type;
  map.version = 1;
  for (uint32_t i = 0; i < initial_blocks; ++i) {
    PartitionEntry entry;
    entry.block = blocks[i];
    switch (type) {
      case DsType::kFile:
        entry.lo = static_cast<uint64_t>(i) * config_.block_size_bytes;
        entry.hi = entry.lo + config_.block_size_bytes;
        break;
      case DsType::kQueue:
        entry.lo = i;  // Segment index.
        entry.hi = i;
        break;
      case DsType::kKvStore: {
        // Even slot split across the initial blocks.
        const uint64_t slots = config_.kv_hash_slots;
        entry.lo = slots * i / initial_blocks;
        entry.hi = slots * (i + 1) / initial_blocks;
        break;
      }
      case DsType::kCustom:
        // Custom structures interpret [lo, hi) themselves; default to file-
        // style contiguous ranges.
        entry.lo = static_cast<uint64_t>(i) * config_.block_size_bytes;
        entry.hi = entry.lo + config_.block_size_bytes;
        break;
    }
    if (hooks_ != nullptr) {
      JIFFY_RETURN_IF_ERROR(hooks_->InitBlock(entry.block, type, entry.lo,
                                              entry.hi, job, prefix,
                                              custom_type));
    }
    node->partition.type = type;  // FillReplicas reads the DS type.
    node->partition.custom_type = custom_type;
    JIFFY_RETURN_IF_ERROR(
        FillReplicasLocked(node, &entry, job, prefix, /*copy_primary=*/false));
    map.entries.push_back(entry);
  }
  map.persist_writes = node->persist_writes;
  map.custom_type = custom_type;
  node->has_ds = true;
  node->partition = map;
  node->blocks_ever_allocated += initial_blocks;
  obs::Inc(m_blocks_allocated_, initial_blocks);
  CountAllocation(job, type, initial_blocks);
  stats_.blocks_allocated.fetch_add(initial_blocks, std::memory_order_relaxed);
  return map;
}

Result<PartitionMap> Controller::GetPartitionMap(const std::string& job,
                                                 const std::string& prefix) {
  JIFFY_RETURN_IF_ERROR(CheckReadLease());
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  if (!node->has_ds) {
    return FailedPrecondition("no data structure under '" + prefix + "'");
  }
  if (node->expired) {
    return LeaseExpired("prefix '" + prefix +
                        "' expired; data is on persistent storage");
  }
  return node->partition;
}

Result<BlockId> Controller::AddBlockLocked(TaskNode* node,
                                           const std::string& job,
                                           const std::string& prefix,
                                           uint64_t lo, uint64_t hi) {
  JIFFY_ASSIGN_OR_RETURN(BlockId id,
                         allocator_->Allocate(OwnerTag(job, prefix)));
  if (hooks_ != nullptr) {
    Status st = hooks_->InitBlock(id, node->partition.type, lo, hi, job,
                                  prefix, node->partition.custom_type);
    if (!st.ok()) {
      allocator_->Free(id);
      return st;
    }
  }
  PartitionEntry entry;
  entry.block = id;
  entry.lo = lo;
  entry.hi = hi;
  JIFFY_RETURN_IF_ERROR(
      FillReplicasLocked(node, &entry, job, prefix, /*copy_primary=*/false));
  node->partition.entries.push_back(entry);
  node->partition.version++;
  node->blocks_ever_allocated++;
  obs::Inc(m_blocks_allocated_);
  CountAllocation(job, node->partition.type, 1);
  stats_.blocks_allocated.fetch_add(1, std::memory_order_relaxed);
  stats_.overload_signals.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Result<BlockId> Controller::AddBlock(const std::string& job,
                                     const std::string& prefix, uint64_t lo,
                                     uint64_t hi) {
  if (ShouldReplicate()) {
    return ReplicateResult<BlockId>(
        "AddBlock", {job}, [&] { return AddBlock(job, prefix, lo, hi); });
  }
  JIFFY_TRACE_SPAN("ctl.add_block", "control");
  obs::ScopedTimer timer(m_alloc_block_ns_);
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  if (!node->has_ds) {
    return FailedPrecondition("no data structure under '" + prefix + "'");
  }
  return AddBlockLocked(node, job, prefix, lo, hi);
}

Result<BlockId> Controller::AddBlockIfTail(const std::string& job,
                                           const std::string& prefix,
                                           BlockId expected_tail, uint64_t lo,
                                           uint64_t hi) {
  if (ShouldReplicate()) {
    return ReplicateResult<BlockId>("AddBlockIfTail", {job}, [&] {
      return AddBlockIfTail(job, prefix, expected_tail, lo, hi);
    });
  }
  JIFFY_TRACE_SPAN("ctl.add_block", "control");
  obs::ScopedTimer timer(m_alloc_block_ns_);
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  if (!node->has_ds) {
    return FailedPrecondition("no data structure under '" + prefix + "'");
  }
  if (node->partition.entries.empty() ||
      node->partition.entries.back().block != expected_tail) {
    return FailedPrecondition("tail moved: another client already grew '" +
                              prefix + "'");
  }
  // Check and append run under one job-lock acquisition, so two concurrent
  // growers can never both observe the same tail.
  return AddBlockLocked(node, job, prefix, lo, hi);
}

Status Controller::UpdateEntryRange(const std::string& job,
                                    const std::string& prefix, BlockId block,
                                    uint64_t lo, uint64_t hi) {
  if (ShouldReplicate()) {
    return ReplicateOp("UpdateEntryRange", {job}, [&] {
      return UpdateEntryRange(job, prefix, block, lo, hi);
    });
  }
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  for (auto& entry : node->partition.entries) {
    if (entry.block == block) {
      entry.lo = lo;
      entry.hi = hi;
      node->partition.version++;
      return Status::Ok();
    }
  }
  return NotFound("block " + block.ToString() + " is not mapped under '" +
                  prefix + "'");
}

Status Controller::RemoveBlock(const std::string& job,
                               const std::string& prefix, BlockId block) {
  if (ShouldReplicate()) {
    return ReplicateOp("RemoveBlock", {job},
                       [&] { return RemoveBlock(job, prefix, block); });
  }
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  auto& entries = node->partition.entries;
  auto it = std::find_if(entries.begin(), entries.end(),
                         [&](const PartitionEntry& e) { return e.block == block; });
  if (it == entries.end()) {
    return NotFound("block " + block.ToString() + " is not mapped under '" +
                    prefix + "'");
  }
  const std::vector<BlockId> replicas = it->replicas;
  entries.erase(it);
  node->partition.version++;
  ReleaseBlockLocked(block);
  for (const BlockId& r : replicas) {
    ReleaseBlockLocked(r);
  }
  stats_.underload_signals.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Controller::PrepareForLoad(const std::string& job,
                                  const std::string& prefix, DsType type) {
  if (ShouldReplicate()) {
    return ReplicateOp("PrepareForLoad", {job},
                       [&] { return PrepareForLoad(job, prefix, type); });
  }
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  if (node->has_ds) {
    return AlreadyExists("data structure already initialized under '" +
                         prefix + "'");
  }
  node->has_ds = true;
  node->partition.type = type;
  node->partition.version = 1;
  // Block-less until LoadAddrPrefix restores the flushed contents; mark the
  // prefix expired so reads fail with kLeaseExpired rather than routing
  // into an empty map.
  node->expired = true;
  return Status::Ok();
}

Result<BlockId> Controller::AllocateUnmapped(const std::string& job,
                                             const std::string& prefix,
                                             uint64_t lo, uint64_t hi) {
  if (ShouldReplicate()) {
    return ReplicateResult<BlockId>("AllocateUnmapped", {job}, [&] {
      return AllocateUnmapped(job, prefix, lo, hi);
    });
  }
  JIFFY_TRACE_SPAN("ctl.allocate_unmapped", "control");
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  if (!node->has_ds) {
    return FailedPrecondition("no data structure under '" + prefix + "'");
  }
  JIFFY_ASSIGN_OR_RETURN(BlockId id,
                         allocator_->Allocate(OwnerTag(job, prefix)));
  if (hooks_ != nullptr) {
    Status st = hooks_->InitBlock(id, node->partition.type, lo, hi, job,
                                  prefix, node->partition.custom_type);
    if (!st.ok()) {
      allocator_->Free(id);
      return st;
    }
  }
  node->blocks_ever_allocated++;
  obs::Inc(m_blocks_allocated_);
  CountAllocation(job, node->partition.type, 1);
  stats_.blocks_allocated.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Status Controller::CommitSplit(const std::string& job,
                               const std::string& prefix, BlockId old_block,
                               uint64_t old_lo, uint64_t old_hi,
                               const PartitionEntry& new_entry) {
  if (ShouldReplicate()) {
    return ReplicateOp("CommitSplit", {job}, [&] {
      return CommitSplit(job, prefix, old_block, old_lo, old_hi, new_entry);
    });
  }
  JIFFY_TRACE_SPAN("ctl.commit_split", "control");
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  bool found = false;
  for (auto& entry : node->partition.entries) {
    if (entry.block == old_block) {
      if (!entry.migrating) {
        // The BeginMigration bracket is gone (cleared by a failover repair
        // or never replayed on this controller): refuse to publish — the
        // caller un-flips the moved pairs back into the source instead.
        return FailedPrecondition("split source block " +
                                  old_block.ToString() +
                                  " lost its migration bracket");
      }
      entry.lo = old_lo;
      entry.hi = old_hi;
      entry.migrating = false;
      found = true;
      break;
    }
  }
  if (!found) {
    return NotFound("split source block " + old_block.ToString() +
                    " is not mapped under '" + prefix + "'");
  }
  node->partition.entries.push_back(new_entry);
  node->partition.version++;
  obs::Inc(m_splits_);
  stats_.overload_signals.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Controller::CommitMerge(const std::string& job,
                               const std::string& prefix, BlockId removed,
                               BlockId sibling, uint64_t sib_lo,
                               uint64_t sib_hi) {
  if (ShouldReplicate()) {
    return ReplicateOp("CommitMerge", {job}, [&] {
      return CommitMerge(job, prefix, removed, sibling, sib_lo, sib_hi);
    });
  }
  JIFFY_TRACE_SPAN("ctl.commit_merge", "control");
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  auto& entries = node->partition.entries;
  auto rit = std::find_if(entries.begin(), entries.end(),
                          [&](const PartitionEntry& e) { return e.block == removed; });
  if (rit == entries.end()) {
    return NotFound("merge source block " + removed.ToString() +
                    " is not mapped under '" + prefix + "'");
  }
  if (!rit->migrating) {
    return FailedPrecondition("merge source block " + removed.ToString() +
                              " lost its migration bracket");
  }
  bool found = false;
  for (auto& entry : entries) {
    if (entry.block == sibling) {
      entry.lo = sib_lo;
      entry.hi = sib_hi;
      entry.migrating = false;
      found = true;
      break;
    }
  }
  if (!found) {
    return NotFound("merge sibling block " + sibling.ToString() +
                    " is not mapped under '" + prefix + "'");
  }
  const std::vector<BlockId> removed_replicas = rit->replicas;
  entries.erase(std::find_if(entries.begin(), entries.end(),
                             [&](const PartitionEntry& e) {
                               return e.block == removed;
                             }));
  node->partition.version++;
  ReleaseBlockLocked(removed);
  for (const BlockId& r : removed_replicas) {
    ReleaseBlockLocked(r);
  }
  obs::Inc(m_merges_);
  stats_.underload_signals.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Controller::AbortUnmapped(BlockId block) {
  ChargeOp();
  if (hooks_ != nullptr) {
    JIFFY_RETURN_IF_ERROR(hooks_->ResetBlock(block));
  }
  return allocator_->Free(block);
}

Status Controller::BeginMigration(const std::string& job,
                                  const std::string& prefix, BlockId block) {
  if (ShouldReplicate()) {
    return ReplicateOp("BeginMigration", {job},
                       [&] { return BeginMigration(job, prefix, block); });
  }
  JIFFY_TRACE_SPAN("ctl.begin_migration", "control");
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  for (auto& entry : node->partition.entries) {
    if (entry.block == block) {
      if (entry.migrating) {
        return FailedPrecondition("block " + block.ToString() +
                                  " is already migrating");
      }
      entry.migrating = true;
      return Status::Ok();
    }
  }
  return NotFound("migration source block " + block.ToString() +
                  " is not mapped under '" + prefix + "'");
}

Status Controller::EndMigration(const std::string& job,
                                const std::string& prefix, BlockId block) {
  if (ShouldReplicate()) {
    return ReplicateOp("EndMigration", {job},
                       [&] { return EndMigration(job, prefix, block); });
  }
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  for (auto& entry : node->partition.entries) {
    if (entry.block == block) {
      entry.migrating = false;
      return Status::Ok();
    }
  }
  return NotFound("migration source block " + block.ToString() +
                  " is not mapped under '" + prefix + "'");
}

Status Controller::SetQueueHead(const std::string& job,
                                const std::string& prefix,
                                uint32_t head_index) {
  if (ShouldReplicate()) {
    return ReplicateOp("SetQueueHead", {job},
                       [&] { return SetQueueHead(job, prefix, head_index); });
  }
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  if (node->partition.type != DsType::kQueue) {
    return FailedPrecondition("'" + prefix + "' is not a queue");
  }
  node->partition.queue_head = head_index;
  node->partition.version++;
  return Status::Ok();
}

Result<Controller::CasResult> Controller::CasTag(
    const std::string& job, const std::string& prefix, const std::string& key,
    const std::string& expected, const std::string& desired,
    const std::string& client_id, uint64_t seq) {
  if (ShouldReplicate()) {
    return ReplicateResult<CasResult>("CasTag", {job}, [&] {
      return CasTag(job, prefix, key, expected, desired, client_id, seq);
    });
  }
  JIFFY_TRACE_SPAN("ctl.cas_tag", "control");
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  // Exactly-once replay: a retried sequence number returns the recorded
  // response without touching the tag again. The session table lives in the
  // job state, so it rides the same log entry as the tag mutation — a
  // retry against a freshly promoted leader finds it there.
  auto& sessions = locked.hier()->cas_sessions();
  if (!client_id.empty()) {
    auto it = sessions.find(client_id);
    if (it != sessions.end() && seq <= it->second.seq) {
      if (seq < it->second.seq) {
        return FailedPrecondition("Cas sequence " + std::to_string(seq) +
                                  " from '" + client_id +
                                  "' is older than the recorded " +
                                  std::to_string(it->second.seq));
      }
      CasResult cached;
      cached.previous = it->second.previous;
      cached.applied = it->second.applied;
      return cached;
    }
  }
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  CasResult out;
  auto tag = node->tags.find(key);
  out.previous = tag == node->tags.end() ? std::string() : tag->second;
  out.applied = out.previous == expected;
  if (out.applied) {
    // An empty desired value deletes the tag (so "" consistently means
    // "absent" on both sides of the comparison).
    if (desired.empty()) {
      if (tag != node->tags.end()) {
        node->tags.erase(tag);
      }
    } else {
      node->tags[key] = desired;
    }
  }
  if (!client_id.empty()) {
    sessions[client_id] = CasSession{seq, out.previous, out.applied};
  }
  return out;
}

Status Controller::FlushAddrPrefix(const std::string& job,
                                   const std::string& prefix,
                                   const std::string& external_path) {
  JIFFY_TRACE_SPAN("ctl.flush_prefix", "control");
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  return FlushNodeLocked(locked.hier(), node, external_path, /*evict=*/false);
}

Status Controller::LoadAddrPrefix(const std::string& job,
                                  const std::string& prefix,
                                  const std::string& external_path) {
  if (ShouldReplicate()) {
    return ReplicateOp("LoadAddrPrefix", {job}, [&] {
      return LoadAddrPrefix(job, prefix, external_path);
    });
  }
  JIFFY_TRACE_SPAN("ctl.load_prefix", "control");
  ChargeOp();
  if (backing_ == nullptr || hooks_ == nullptr) {
    return FailedPrecondition("no persistent backing configured");
  }
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  if (!node->has_ds) {
    return FailedPrecondition("no data structure under '" + prefix + "'");
  }
  if (!node->partition.entries.empty()) {
    // A prefix whose whole chain died (every entry flagged `lost`) is
    // reloadable: retire the dead addresses and fall through to the load.
    bool all_lost = true;
    for (const PartitionEntry& entry : node->partition.entries) {
      all_lost &= entry.lost;
    }
    if (!all_lost) {
      return FailedPrecondition("prefix '" + prefix +
                                "' already has in-memory blocks");
    }
    for (const PartitionEntry& entry : node->partition.entries) {
      ReleaseBlockLocked(entry.block);
      for (const BlockId& r : entry.replicas) {
        ReleaseBlockLocked(r);
      }
    }
    node->partition.entries.clear();
  }
  const std::vector<std::string> objects = backing_->List(external_path + "/");
  if (objects.empty()) {
    return NotFound("nothing flushed at '" + external_path + "'");
  }
  for (const auto& obj_path : objects) {
    JIFFY_ASSIGN_OR_RETURN(std::string object, backing_->Get(obj_path));
    // Parse "<lo> <hi>\n<payload>".
    const size_t nl = object.find('\n');
    if (nl == std::string::npos) {
      return Internal("corrupt flushed object at '" + obj_path + "'");
    }
    uint64_t lo = 0, hi = 0;
    if (sscanf(object.c_str(), "%lu %lu", &lo, &hi) != 2) {
      return Internal("corrupt flushed header at '" + obj_path + "'");
    }
    const std::string payload = object.substr(nl + 1);
    JIFFY_ASSIGN_OR_RETURN(BlockId id,
                           allocator_->Allocate(OwnerTag(job, prefix)));
    Status st = hooks_->RestoreBlock(id, node->partition.type, payload, lo, hi,
                                     job, prefix, node->partition.custom_type);
    if (!st.ok()) {
      allocator_->Free(id);
      return st;
    }
    node->partition.entries.push_back(PartitionEntry{id, lo, hi});
    node->blocks_ever_allocated++;
    obs::Inc(m_blocks_allocated_);
    stats_.blocks_allocated.fetch_add(1, std::memory_order_relaxed);
  }
  node->partition.version++;
  node->expired = false;
  node->lease_renewed_at = clock_->Now();
  return Status::Ok();
}

Status Controller::RepairEntry(const std::string& job,
                               const std::string& prefix, BlockId hint) {
  if (ShouldReplicate()) {
    return ReplicateOp("RepairEntry", {job},
                       [&] { return RepairEntry(job, prefix, hint); });
  }
  // Child of the failing client op's span (repair runs on the client's
  // thread, inside FailOver, so the TLS context carries the link).
  JIFFY_TRACE_SPAN("ctl.repair_entry", "control");
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  for (auto& entry : node->partition.entries) {
    bool match = entry.block == hint;
    for (const BlockId& r : entry.replicas) {
      match |= r == hint;
    }
    if (!match) {
      continue;
    }
    if (entry.lost) {
      return Unavailable("all replicas of block " + entry.block.ToString() +
                         " lost; reload '" + prefix +
                         "' from persistent storage");
    }
    // Collect the live chain in order (primary first).
    std::vector<BlockId> live;
    if (hooks_ == nullptr || hooks_->IsBlockLive(entry.block)) {
      live.push_back(entry.block);
    }
    for (const BlockId& r : entry.replicas) {
      if (hooks_ == nullptr || hooks_->IsBlockLive(r)) {
        live.push_back(r);
      }
    }
    if (live.empty()) {
      entry.lost = true;
      entry.replicas.clear();
      node->partition.version++;
      return Unavailable("all replicas of block " + entry.block.ToString() +
                         " lost; reload '" + prefix +
                         "' from persistent storage");
    }
    if (live.size() == 1 + entry.replicas.size() && live[0] == entry.block) {
      return Status::Ok();  // Nothing dead; spurious repair request.
    }
    entry.block = live.front();
    entry.replicas.assign(live.begin() + 1, live.end());
    node->partition.version++;
    return Status::Ok();
  }
  return NotFound("no partition entry contains block " + hint.ToString() +
                  " under '" + prefix + "'");
}

Result<uint32_t> Controller::ReReplicate(const std::string& job,
                                         const std::string& prefix) {
  if (ShouldReplicate()) {
    return ReplicateResult<uint32_t>(
        "ReReplicate", {job}, [&] { return ReReplicate(job, prefix); });
  }
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  uint32_t created = 0;
  bool changed = false;
  for (auto& entry : node->partition.entries) {
    if (entry.lost) {
      return Unavailable("all replicas of block " + entry.block.ToString() +
                         " lost; reload '" + prefix +
                         "' from persistent storage");
    }
    // First drop dead chain members (a dead primary may linger when reads
    // kept succeeding off the tail and no write forced a failover).
    std::vector<BlockId> live;
    if (hooks_ == nullptr || hooks_->IsBlockLive(entry.block)) {
      live.push_back(entry.block);
    }
    for (const BlockId& r : entry.replicas) {
      if (hooks_ == nullptr || hooks_->IsBlockLive(r)) {
        live.push_back(r);
      }
    }
    if (live.empty()) {
      entry.lost = true;
      entry.replicas.clear();
      node->partition.version++;
      return Unavailable("all replicas of block " + entry.block.ToString() +
                         " lost; reload '" + prefix +
                         "' from persistent storage");
    }
    if (live.size() != 1 + entry.replicas.size() || live[0] != entry.block) {
      entry.block = live.front();
      entry.replicas.assign(live.begin() + 1, live.end());
      changed = true;
    }
    const size_t before = entry.replicas.size();
    JIFFY_RETURN_IF_ERROR(
        FillReplicasLocked(node, &entry, job, prefix, /*copy_primary=*/true));
    created += static_cast<uint32_t>(entry.replicas.size() - before);
  }
  if (created > 0 || changed) {
    node->partition.version++;
  }
  return created;
}

void Controller::MarkServerDead(uint32_t server_id) {
  ChargeOp();
  allocator_->MarkServerDead(server_id);
}

uint64_t Controller::HandleServerFailure(uint32_t server_id) {
  if (ShouldReplicate()) {
    return ReplicateCount("HandleServerFailure",
                          [&] { return HandleServerFailure(server_id); });
  }
  ChargeOp();
  allocator_->MarkServerDead(server_id);
  uint64_t repaired = 0;
  // Quiesce one job at a time, exactly like the expiry scan: pin the slot
  // list under the shared table lock, then repair each job under its own
  // mutex so unrelated jobs keep serving.
  for (const auto& slot : PinAllJobs()) {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->defunct) {
      continue;
    }
    JobHierarchy* hier = &slot->hier;
    for (const auto& name : hier->NodeNames()) {
      auto node_r = hier->GetNode(name);
      if (!node_r.ok() || !(*node_r)->has_ds || (*node_r)->expired) {
        continue;
      }
      TaskNode* node = *node_r;
      bool changed = false;
      for (auto& entry : node->partition.entries) {
        bool touched = entry.block.server_id == server_id;
        for (const BlockId& r : entry.replicas) {
          touched |= r.server_id == server_id;
        }
        if (!touched || entry.lost) {
          continue;
        }
        // Collect survivors in chain order (primary first).
        std::vector<BlockId> live;
        if (hooks_ == nullptr || hooks_->IsBlockLive(entry.block)) {
          live.push_back(entry.block);
        }
        for (const BlockId& r : entry.replicas) {
          if (hooks_ == nullptr || hooks_->IsBlockLive(r)) {
            live.push_back(r);
          }
        }
        if (live.empty()) {
          // Whole chain gone. Flag the entry so repairs and failovers fail
          // fast; the data only comes back via LoadAddrPrefix.
          entry.lost = true;
          entry.replicas.clear();
          changed = true;
          ++repaired;
          continue;
        }
        entry.block = live.front();
        entry.replicas.assign(live.begin() + 1, live.end());
        changed = true;
        ++repaired;
        // Restore the chain length from the new primary. Skipped while a
        // chunked migration is draining this entry (the migration commit
        // path owns its replica set); tolerated on allocation failure — a
        // short chain still serves, and the next ReReplicate retries.
        if (!entry.migrating) {
          Status st = FillReplicasLocked(node, &entry, hier->job_id(), name,
                                         /*copy_primary=*/true);
          if (!st.ok()) {
            JIFFY_LOG(WARNING)
                << "re-replication after server " << server_id
                << " failure left a short chain for " << hier->job_id() << "/"
                << name << ": " << st;
          }
        }
      }
      if (changed) {
        node->partition.version++;
      }
    }
  }
  return repaired;
}

Result<PartitionMap> Controller::GetPartitionMapAs(const std::string& principal,
                                                   const std::string& job,
                                                   const std::string& prefix,
                                                   bool for_write) {
  JIFFY_RETURN_IF_ERROR(CheckReadLease());
  ChargeOp();
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  if (principal != node->perms.owner &&
      (for_write ? !node->perms.world_writable
                 : !node->perms.world_readable)) {
    return PermissionDenied("principal '" + principal + "' may not " +
                            (for_write ? "write" : "read") + " '" + prefix +
                            "' of job " + node->perms.owner);
  }
  if (!node->has_ds) {
    return FailedPrecondition("no data structure under '" + prefix + "'");
  }
  if (node->expired) {
    return LeaseExpired("prefix '" + prefix +
                        "' expired; data is on persistent storage");
  }
  return node->partition;
}

void Controller::SerializeJobLocked(const JobHierarchy& hier,
                                    std::string* blob) {
  PutString(blob, hier.job_id());
  const auto names = hier.NodeNames();
  PutU32(blob, static_cast<uint32_t>(names.size()));
  for (const auto& name : names) {
    auto node_r = const_cast<JobHierarchy&>(hier).GetNode(name);
    const TaskNode* node = *node_r;
    PutString(blob, node->name);
    PutU32(blob, static_cast<uint32_t>(node->parents.size()));
    for (const auto& p : node->parents) {
      PutString(blob, p);
    }
    PutU64(blob, static_cast<uint64_t>(node->lease_renewed_at));
    PutU64(blob, static_cast<uint64_t>(node->lease_duration));
    PutU32(blob, (node->expired ? 1u : 0u) | (node->has_ds ? 2u : 0u) |
                     (node->persist_writes ? 4u : 0u) |
                     (node->perms.world_readable ? 8u : 0u) |
                     (node->perms.world_writable ? 16u : 0u));
    PutU32(blob, node->replication_factor);
    PutString(blob, node->perms.owner);
    // v3: Cas metadata tags.
    PutU32(blob, static_cast<uint32_t>(node->tags.size()));
    for (const auto& [k, v] : node->tags) {
      PutString(blob, k);
      PutString(blob, v);
    }
    // Partition map.
    PutU64(blob, node->partition.version);
    PutU32(blob, static_cast<uint32_t>(node->partition.type));
    PutString(blob, node->partition.custom_type);
    // v3: the queue head index (a promoted standby that reset it would
    // re-serve drained queue segments).
    PutU32(blob, node->partition.queue_head);
    PutU32(blob, static_cast<uint32_t>(node->partition.entries.size()));
    for (const auto& entry : node->partition.entries) {
      PutU64(blob, entry.block.Packed());
      PutU64(blob, entry.lo);
      PutU64(blob, entry.hi);
      PutU32(blob, static_cast<uint32_t>(entry.replicas.size()));
      for (const BlockId& r : entry.replicas) {
        PutU64(blob, r.Packed());
      }
      // Per-entry flags: bit0 = lost (v2+), bit1 = migrating (v3; see
      // PartitionEntry for who clears it on restore).
      PutU32(blob, (entry.lost ? 1u : 0u) | (entry.migrating ? 2u : 0u));
    }
  }
  // v3: exactly-once Cas replay table.
  const auto& sessions = hier.cas_sessions();
  PutU32(blob, static_cast<uint32_t>(sessions.size()));
  for (const auto& [client, session] : sessions) {
    PutString(blob, client);
    PutU64(blob, session.seq);
    PutString(blob, session.previous);
    PutU32(blob, session.applied ? 1u : 0u);
  }
}

Result<std::shared_ptr<Controller::JobSlot>> Controller::ParseJobSection(
    SerdeReader* reader, bool preserve_migrating) const {
  JIFFY_ASSIGN_OR_RETURN(std::string job_id, reader->ReadString());
  auto slot = std::make_shared<JobSlot>(job_id, clock_->Now(),
                                        config_.lease_duration,
                                        config_.lease_propagation);
  JobHierarchy* hier = &slot->hier;
  JIFFY_ASSIGN_OR_RETURN(uint32_t num_nodes, reader->ReadU32());
  // First pass data, applied in dependency order below.
  struct NodeRec {
    std::string name;
    std::vector<std::string> parents;
    TimeNs renewed;
    DurationNs lease;
    uint32_t flags;
    uint32_t replication;
    std::string owner;
    std::map<std::string, std::string> tags;
    PartitionMap partition;
  };
  std::vector<NodeRec> recs;
  recs.reserve(num_nodes);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    NodeRec rec;
    JIFFY_ASSIGN_OR_RETURN(rec.name, reader->ReadString());
    JIFFY_ASSIGN_OR_RETURN(uint32_t num_parents, reader->ReadU32());
    for (uint32_t p = 0; p < num_parents; ++p) {
      JIFFY_ASSIGN_OR_RETURN(std::string parent, reader->ReadString());
      rec.parents.push_back(std::move(parent));
    }
    JIFFY_ASSIGN_OR_RETURN(uint64_t renewed, reader->ReadU64());
    JIFFY_ASSIGN_OR_RETURN(uint64_t lease, reader->ReadU64());
    rec.renewed = static_cast<TimeNs>(renewed);
    rec.lease = static_cast<DurationNs>(lease);
    JIFFY_ASSIGN_OR_RETURN(rec.flags, reader->ReadU32());
    JIFFY_ASSIGN_OR_RETURN(rec.replication, reader->ReadU32());
    JIFFY_ASSIGN_OR_RETURN(rec.owner, reader->ReadString());
    JIFFY_ASSIGN_OR_RETURN(uint32_t num_tags, reader->ReadU32());
    for (uint32_t t = 0; t < num_tags; ++t) {
      JIFFY_ASSIGN_OR_RETURN(std::string k, reader->ReadString());
      JIFFY_ASSIGN_OR_RETURN(std::string v, reader->ReadString());
      rec.tags.emplace(std::move(k), std::move(v));
    }
    JIFFY_ASSIGN_OR_RETURN(rec.partition.version, reader->ReadU64());
    JIFFY_ASSIGN_OR_RETURN(uint32_t type, reader->ReadU32());
    rec.partition.type = static_cast<DsType>(type);
    JIFFY_ASSIGN_OR_RETURN(rec.partition.custom_type, reader->ReadString());
    JIFFY_ASSIGN_OR_RETURN(rec.partition.queue_head, reader->ReadU32());
    rec.partition.persist_writes = (rec.flags & 4u) != 0;
    JIFFY_ASSIGN_OR_RETURN(uint32_t num_entries, reader->ReadU32());
    for (uint32_t e = 0; e < num_entries; ++e) {
      PartitionEntry entry;
      JIFFY_ASSIGN_OR_RETURN(uint64_t packed, reader->ReadU64());
      entry.block = BlockId::FromPacked(packed);
      JIFFY_ASSIGN_OR_RETURN(entry.lo, reader->ReadU64());
      JIFFY_ASSIGN_OR_RETURN(entry.hi, reader->ReadU64());
      JIFFY_ASSIGN_OR_RETURN(uint32_t num_replicas, reader->ReadU32());
      for (uint32_t r = 0; r < num_replicas; ++r) {
        JIFFY_ASSIGN_OR_RETURN(uint64_t rpacked, reader->ReadU64());
        entry.replicas.push_back(BlockId::FromPacked(rpacked));
      }
      JIFFY_ASSIGN_OR_RETURN(uint32_t entry_flags, reader->ReadU32());
      entry.lost = (entry_flags & 1u) != 0;
      entry.migrating = preserve_migrating && (entry_flags & 2u) != 0;
      rec.partition.entries.push_back(std::move(entry));
    }
    recs.push_back(std::move(rec));
  }
  // Insert nodes in dependency order (a node's parents first).
  std::vector<std::pair<std::string, std::vector<std::string>>> dag;
  dag.reserve(recs.size());
  for (const NodeRec& rec : recs) {
    dag.emplace_back(rec.name, rec.parents);
  }
  JIFFY_RETURN_IF_ERROR(hier->CreateFromDag(dag, clock_->Now(), 0));
  for (NodeRec& rec : recs) {
    JIFFY_ASSIGN_OR_RETURN(TaskNode * node, hier->GetNode(rec.name));
    node->lease_renewed_at = rec.renewed;
    node->lease_duration = rec.lease;
    node->expired = (rec.flags & 1u) != 0;
    node->has_ds = (rec.flags & 2u) != 0;
    node->persist_writes = (rec.flags & 4u) != 0;
    node->perms.world_readable = (rec.flags & 8u) != 0;
    node->perms.world_writable = (rec.flags & 16u) != 0;
    node->replication_factor = rec.replication;
    node->perms.owner = rec.owner;
    node->tags = std::move(rec.tags);
    node->partition = std::move(rec.partition);
  }
  auto& sessions = hier->cas_sessions();
  JIFFY_ASSIGN_OR_RETURN(uint32_t num_sessions, reader->ReadU32());
  for (uint32_t s = 0; s < num_sessions; ++s) {
    JIFFY_ASSIGN_OR_RETURN(std::string client, reader->ReadString());
    CasSession session;
    JIFFY_ASSIGN_OR_RETURN(session.seq, reader->ReadU64());
    JIFFY_ASSIGN_OR_RETURN(session.previous, reader->ReadString());
    JIFFY_ASSIGN_OR_RETURN(uint32_t applied, reader->ReadU32());
    session.applied = applied != 0;
    sessions.emplace(std::move(client), std::move(session));
  }
  // Whatever replaced this hierarchy, any renewal plan memoized against the
  // previous one is dead (stale TaskNode pointers, possibly stale blocks).
  hier->InvalidateRenewalPlans();
  return slot;
}

std::string Controller::Snapshot(uint64_t applied_index) const {
  // Serialize each job under its own mutex (quiesce one job at a time), then
  // assemble. Per-job state is exactly consistent; the job set is the set
  // pinned at the start of the snapshot minus jobs deregistered meanwhile.
  // Cross-job consistency is the RSM layer's job: it calls this at an
  // applied-index barrier (no replicated mutation in flight) and stamps the
  // covered index into the header.
  std::vector<std::string> job_blobs;
  for (const auto& slot : PinAllJobs()) {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->defunct) {
      continue;
    }
    std::string blob;
    SerializeJobLocked(slot->hier, &blob);
    job_blobs.push_back(std::move(blob));
  }
  std::string out;
  // v3 adds the applied-index stamp, Cas tags + replay table, queue head,
  // and the migrating bit in per-entry flags.
  PutU32(&out, 3);
  PutU64(&out, applied_index);
  PutU32(&out, static_cast<uint32_t>(job_blobs.size()));
  for (const std::string& blob : job_blobs) {
    out += blob;
  }
  return out;
}

uint64_t Controller::SnapshotAppliedIndex(const std::string& snapshot) {
  SerdeReader reader(snapshot);
  auto version = reader.ReadU32();
  if (!version.ok() || *version != 3) {
    return 0;
  }
  auto applied = reader.ReadU64();
  return applied.ok() ? *applied : 0;
}

Status Controller::Restore(const std::string& snapshot,
                           bool preserve_migrating) {
  std::unique_lock<std::shared_mutex> table(jobs_mu_);
  if (!jobs_.empty()) {
    return FailedPrecondition(
        "Restore requires a fresh standby controller (jobs present)");
  }
  SerdeReader reader(snapshot);
  JIFFY_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != 3) {
    // Snapshots live only in memory, and only v3 is ever written.
    return InvalidArgument("unsupported snapshot version " +
                           std::to_string(version));
  }
  JIFFY_RETURN_IF_ERROR(reader.ReadU64().status());  // applied_index stamp
  JIFFY_ASSIGN_OR_RETURN(uint32_t num_jobs, reader.ReadU32());
  for (uint32_t j = 0; j < num_jobs; ++j) {
    JIFFY_ASSIGN_OR_RETURN(std::shared_ptr<JobSlot> slot,
                           ParseJobSection(&reader, preserve_migrating));
    const std::string job_id = slot->hier.job_id();
    jobs_.emplace(job_id, std::move(slot));
  }
  return Status::Ok();
}

std::string Controller::CaptureJob(const std::string& job) const {
  auto locked = LockJob(job);
  if (!locked.ok()) {
    return std::string();  // "job dropped" marker.
  }
  std::string blob;
  SerializeJobLocked(*locked->hier(), &blob);
  return blob;
}

Status Controller::InstallJobBlob(const std::string& job,
                                  const std::string& blob) {
  std::shared_ptr<JobSlot> fresh;
  if (!blob.empty()) {
    SerdeReader reader(blob);
    JIFFY_ASSIGN_OR_RETURN(
        fresh, ParseJobSection(&reader, /*preserve_migrating=*/true));
    if (fresh->hier.job_id() != job) {
      return InvalidArgument("job blob for '" + fresh->hier.job_id() +
                             "' installed under '" + job + "'");
    }
  }
  std::shared_ptr<JobSlot> old;
  {
    std::unique_lock<std::shared_mutex> table(jobs_mu_);
    auto it = jobs_.find(job);
    if (it != jobs_.end()) {
      old = std::move(it->second);
      jobs_.erase(it);
    }
    if (fresh != nullptr) {
      jobs_.emplace(job, std::move(fresh));
    }
  }
  if (old != nullptr) {
    // Metadata-only swap: in-flight requests pinned on the old slot see
    // `defunct` and retry; no block is touched (the data plane's state is
    // the log entry's concern, not the blob installer's).
    std::lock_guard<std::mutex> lock(old->mu);
    old->defunct = true;
  }
  return Status::Ok();
}

std::vector<std::string> Controller::JobIds() const {
  std::shared_lock<std::shared_mutex> table(jobs_mu_);
  std::vector<std::string> ids;
  ids.reserve(jobs_.size());
  for (const auto& [job_id, slot] : jobs_) {
    (void)slot;
    ids.push_back(job_id);
  }
  return ids;
}

std::vector<uint64_t> Controller::JobBlockRefs(const std::string& job) const {
  auto locked = LockJob(job);
  if (!locked.ok()) {
    return {};
  }
  std::vector<uint64_t> refs;
  JobHierarchy* hier = locked->hier();
  for (const auto& name : hier->NodeNames()) {
    auto node_r = hier->GetNode(name);
    if (!node_r.ok()) {
      continue;
    }
    for (const auto& entry : (*node_r)->partition.entries) {
      refs.push_back(entry.block.Packed());
      for (const BlockId& r : entry.replicas) {
        refs.push_back(r.Packed());
      }
    }
  }
  std::sort(refs.begin(), refs.end());
  return refs;
}

void Controller::ReleaseBlocksById(const std::vector<uint64_t>& packed) {
  for (uint64_t p : packed) {
    const BlockId id = BlockId::FromPacked(p);
    if (hooks_ != nullptr && hooks_->IsBlockLive(id)) {
      hooks_->ResetBlock(id);
    }
    allocator_->Free(id);
  }
}

void Controller::ResetMetadata() {
  std::map<std::string, std::shared_ptr<JobSlot>> drained;
  {
    std::unique_lock<std::shared_mutex> table(jobs_mu_);
    drained.swap(jobs_);
  }
  for (auto& [job_id, slot] : drained) {
    (void)job_id;
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->defunct = true;
  }
}

void Controller::InvalidateRenewalPlans() {
  for (const auto& slot : PinAllJobs()) {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (!slot->defunct) {
      slot->hier.InvalidateRenewalPlans();
    }
  }
}

void Controller::RestartLeases(TimeNs at) {
  for (const auto& slot : PinAllJobs()) {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->defunct) {
      continue;
    }
    for (const auto& name : slot->hier.NodeNames()) {
      auto node_r = slot->hier.GetNode(name);
      if (node_r.ok()) {
        TimeNs& stamp = (*node_r)->lease_renewed_at;
        stamp = std::max(stamp, at);
      }
    }
  }
}

void Controller::AbortInFlightMigrations() {
  for (const auto& slot : PinAllJobs()) {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->defunct) {
      continue;
    }
    for (const auto& name : slot->hier.NodeNames()) {
      auto node_r = slot->hier.GetNode(name);
      if (!node_r.ok()) {
        continue;
      }
      for (auto& entry : (*node_r)->partition.entries) {
        entry.migrating = false;
      }
    }
  }
}

ControllerStats Controller::Stats() const {
  ControllerStats out;
  out.ops = stats_.ops.load(std::memory_order_relaxed);
  out.lease_renewals = stats_.lease_renewals.load(std::memory_order_relaxed);
  out.expiry_scans = stats_.expiry_scans.load(std::memory_order_relaxed);
  out.prefixes_expired =
      stats_.prefixes_expired.load(std::memory_order_relaxed);
  out.blocks_reclaimed =
      stats_.blocks_reclaimed.load(std::memory_order_relaxed);
  out.blocks_allocated =
      stats_.blocks_allocated.load(std::memory_order_relaxed);
  out.bytes_flushed = stats_.bytes_flushed.load(std::memory_order_relaxed);
  out.overload_signals =
      stats_.overload_signals.load(std::memory_order_relaxed);
  out.underload_signals =
      stats_.underload_signals.load(std::memory_order_relaxed);
  return out;
}

Result<size_t> Controller::JobMetadataBytes(const std::string& job) {
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  return locked.hier()->MetadataBytes();
}

Result<bool> Controller::IsExpired(const std::string& job,
                                   const std::string& prefix) {
  JIFFY_ASSIGN_OR_RETURN(LockedJob locked, LockJob(job));
  JIFFY_ASSIGN_OR_RETURN(TaskNode * node, locked.hier()->GetNode(prefix));
  return node->expired;
}

}  // namespace jiffy
