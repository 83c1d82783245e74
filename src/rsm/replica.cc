#include "src/rsm/replica.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/rsm/group.h"

namespace jiffy {
namespace rsm {

Replica::Replica(int index, ControllerGroup* group, Controller* controller,
                 Clock* clock, const JiffyConfig& config)
    : index_(index),
      group_(group),
      ctl_(controller),
      clock_(clock),
      config_(config) {}

bool Replica::MayServeReads() {
  if (!leader_.load(std::memory_order_acquire) ||
      crashed_.load(std::memory_order_acquire)) {
    return false;
  }
  const TimeNs now = clock_->Now();
  return now >= reads_ok_after_.load(std::memory_order_acquire) &&
         now < lease_expiry_.load(std::memory_order_acquire);
}

Status Replica::Replicate(const char* op, const std::vector<std::string>& jobs,
                          const std::function<Status()>& fn) {
  std::lock_guard<std::mutex> lock(group_->mu_);
  if (crashed_.load(std::memory_order_relaxed) ||
      !leader_.load(std::memory_order_relaxed)) {
    return Unavailable("not the metadata leader (leader hint: replica " +
                       std::to_string(leader_hint_.load()) + ")");
  }
  std::vector<std::string> affected = jobs;
  if (affected.empty()) {
    affected = ctl_->JobIds();
  }
  // Pre-state: rollback target if the entry fails to reach a quorum. A
  // blob-cache hit (the common case on the hot path) is the state as of
  // the last appended entry, which is the logged pre-state here (only
  // unlogged lease stamps may have moved since) — only a miss pays a
  // serialization.
  std::vector<std::pair<std::string, std::string>> before;
  std::vector<uint64_t> before_refs;
  before.reserve(affected.size());
  for (const std::string& job : affected) {
    auto cached = leader_blob_cache_.find(job);
    before.emplace_back(job, cached != leader_blob_cache_.end()
                                 ? cached->second
                                 : ctl_->CaptureJob(job));
    for (uint64_t r : ctl_->JobBlockRefs(job)) {
      before_refs.push_back(r);
    }
  }
  // Execute live. The scope suppresses re-replication and defers
  // destructive block frees until the entry commits.
  std::vector<BlockId> deferred;
  Status fn_st;
  {
    Controller::ReplicatedApplyScope scope(&deferred);
    fn_st = fn();
  }
  if (!fn_st.ok()) {
    // Controller mutators validate before mutating, so a failed op left no
    // effects behind — nothing to replicate, nothing to roll back.
    return fn_st;
  }
  LogEntry entry;
  entry.term = current_term_;
  entry.index = last_index() + 1;
  entry.op = op;
  entry.origin = index_;
  std::vector<uint64_t> after_refs;
  bool changed = !deferred.empty();
  for (size_t i = 0; i < affected.size(); ++i) {
    std::string blob = ctl_->CaptureJob(affected[i]);
    if (blob != before[i].second) {
      changed = true;
    }
    for (uint64_t r : ctl_->JobBlockRefs(affected[i])) {
      after_refs.push_back(r);
    }
    entry.blobs.emplace_back(affected[i], std::move(blob));
  }
  if (!changed) {
    // Effectively read-only (e.g. an expiry scan that found nothing):
    // appending would only churn the log. Seed the cache so the next op on
    // these jobs skips the pre-state capture.
    for (auto& [job, blob] : entry.blobs) {
      CacheBlob(job, std::move(blob));
    }
    return fn_st;
  }
  std::sort(before_refs.begin(), before_refs.end());
  std::sort(after_refs.begin(), after_refs.end());
  std::set_difference(after_refs.begin(), after_refs.end(),
                      before_refs.begin(), before_refs.end(),
                      std::back_inserter(entry.new_blocks));
  for (const BlockId& b : deferred) {
    entry.freed_blocks.push_back(b.Packed());
  }
  log_.push_back(std::move(entry));
  if (group_->MaybeCrashLocked(index_, CrashPoint::kLeaderAfterAppend)) {
    return Unavailable("metadata leader crashed");
  }
  const int acks = group_->BroadcastAppendLocked(index_);
  if (group_->MaybeCrashLocked(index_, CrashPoint::kLeaderAfterReplicate)) {
    return Unavailable("metadata leader crashed");
  }
  if (acks < group_->QuorumSize()) {
    // Not committed → not visible: restore the pre-state blobs, release the
    // blocks the op allocated, and drop the entry. Deferred frees are
    // simply discarded — the blocks stay owned by the restored pre-state.
    const LogEntry& e = log_.back();
    for (const auto& [job, blob] : before) {
      ctl_->InstallJobBlob(job, blob);
    }
    ctl_->ReleaseBlocksById(e.new_blocks);
    log_.pop_back();
    leader_blob_cache_.clear();
    leader_.store(false, std::memory_order_release);
    lease_expiry_.store(0, std::memory_order_release);
    return Unavailable("metadata op lost quorum; rolled back");
  }
  commit_index_ = last_index();
  for (const auto& [job, blob] : log_.back().blobs) {
    CacheBlob(job, blob);
  }
  // Quorum contact doubles as a read-lease refresh.
  lease_expiry_.store(clock_->Now() + config_.rsm_read_lease,
                      std::memory_order_release);
  ctl_->PerformDeferredFrees(deferred);
  group_->MaybeCompactLocked(index_, /*force=*/false);
  if (group_->MaybeCrashLocked(index_, CrashPoint::kLeaderAfterCommit)) {
    // The op IS committed; the caller sees a failure and retries, which is
    // why retried mutations must be detectable (a re-create reports
    // kAlreadyExists) or deduplicated (Cas sessions).
    return Unavailable("metadata leader crashed after commit");
  }
  return fn_st;
}

void Replica::CacheBlob(const std::string& job, std::string blob) {
  if (blob.empty()) {
    // A dropped job: a miss re-captures the same "".
    leader_blob_cache_.erase(job);
  } else {
    leader_blob_cache_[job] = std::move(blob);
  }
}

size_t Replica::blob_cache_size() const {
  std::lock_guard<std::mutex> lock(group_->mu_);
  return leader_blob_cache_.size();
}

bool Replica::HandleAppend(uint64_t term, uint64_t prev_index,
                           uint64_t prev_term,
                           const std::vector<LogEntry>& entries,
                           uint64_t leader_commit, int leader_index,
                           uint64_t* term_out) {
  *term_out = current_term_;
  if (crashed_.load(std::memory_order_relaxed)) {
    return false;
  }
  if (term < current_term_) {
    return false;
  }
  current_term_ = term;
  *term_out = term;
  if (leader_index != index_) {
    if (leader_.exchange(false)) {
      lease_expiry_.store(0, std::memory_order_release);
    }
    Demote();
    leader_hint_.store(leader_index, std::memory_order_relaxed);
  }
  // Entries at or below our snapshot base are committed and identical by
  // construction; skip them instead of failing the prev check.
  const std::vector<LogEntry>* use = &entries;
  std::vector<LogEntry> trimmed;
  if (prev_index < base_index_) {
    if (prev_index + entries.size() <= base_index_) {
      use = nullptr;  // Everything offered is already covered.
    } else {
      trimmed.assign(entries.begin() + (base_index_ - prev_index),
                     entries.end());
      use = &trimmed;
    }
    prev_index = base_index_;
    prev_term = base_term_;
  }
  if (prev_index > last_index() || TermAt(prev_index) != prev_term) {
    return false;
  }
  if (use != nullptr && !use->empty()) {
    if (group_->MaybeCrashLocked(index_, CrashPoint::kFollowerBeforeAppend)) {
      return false;
    }
    for (const LogEntry& e : *use) {
      if (e.index <= last_index()) {
        if (TermAt(e.index) == e.term) {
          continue;  // Already stored.
        }
        TruncateFrom(e.index);
      }
      log_.push_back(e);
    }
    if (group_->MaybeCrashLocked(index_, CrashPoint::kFollowerAfterAppend)) {
      return false;  // Stored, but the ack never reaches the leader.
    }
  }
  if (leader_commit > commit_index_) {
    commit_index_ = std::min(leader_commit, last_index());
  }
  return true;
}

bool Replica::HandleVote(uint64_t term, int candidate,
                         uint64_t last_log_index, uint64_t last_log_term) {
  if (crashed_.load(std::memory_order_relaxed)) {
    return false;
  }
  if (term < current_term_) {
    return false;
  }
  if (term > current_term_) {
    current_term_ = term;
    if (leader_.exchange(false)) {
      lease_expiry_.store(0, std::memory_order_release);
    }
  }
  if (voted_term_ == term && voted_for_ != candidate) {
    return false;
  }
  const bool up_to_date =
      last_log_term > LastTerm() ||
      (last_log_term == LastTerm() && last_log_index >= last_index());
  if (!up_to_date) {
    return false;
  }
  voted_term_ = term;
  voted_for_ = candidate;
  return true;
}

bool Replica::HandleInstallSnapshot(uint64_t term, const std::string& snapshot,
                                    uint64_t snap_index, uint64_t snap_term,
                                    int leader_index) {
  if (crashed_.load(std::memory_order_relaxed)) {
    return false;
  }
  if (term < current_term_) {
    return false;
  }
  current_term_ = term;
  if (leader_index != index_) {
    if (leader_.exchange(false)) {
      lease_expiry_.store(0, std::memory_order_release);
    }
    Demote();
    leader_hint_.store(leader_index, std::memory_order_relaxed);
  }
  if (group_->MaybeCrashLocked(index_,
                               CrashPoint::kFollowerDuringSnapshotInstall)) {
    return false;  // Crashed before the snapshot was durably installed.
  }
  if (snap_index <= base_index_) {
    return true;  // Stale snapshot; our base already covers it.
  }
  if (last_index() > snap_index && TermAt(snap_index) == snap_term) {
    // Our suffix past the snapshot is consistent — keep it, drop the
    // covered prefix (committed entries; never GC'd).
    log_.erase(log_.begin(),
               log_.begin() + static_cast<long>(snap_index - base_index_));
  } else {
    // Conflicting or shorter log. Entries above the snapshot index are
    // uncommitted conflicts — GC the ones we originated; entries at or
    // below it are committed (the snapshot covers them) — never GC'd.
    while (!log_.empty() && last_index() > snap_index) {
      LogEntry& e = log_.back();
      if (e.origin == index_) {
        ctl_->ReleaseBlocksById(e.new_blocks);
      }
      log_.pop_back();
    }
    log_.clear();
  }
  base_snapshot_ = snapshot;
  base_index_ = snap_index;
  base_term_ = snap_term;
  commit_index_ = std::max(commit_index_, snap_index);
  return true;
}

void Replica::TruncateFrom(uint64_t from_index) {
  leader_blob_cache_.clear();
  while (!log_.empty() && last_index() >= from_index) {
    LogEntry& e = log_.back();
    // Conflict-truncated entries were never committed. Their originator is
    // the only holder of the blocks they allocated against the shared data
    // plane, so it frees them here — the orphan-block GC for a leader that
    // crashed (or lost quorum) mid-operation.
    if (e.origin == index_) {
      ctl_->ReleaseBlocksById(e.new_blocks);
    }
    log_.pop_back();
  }
}

void Replica::Materialize() {
  ctl_->ResetMetadata();
  if (!base_snapshot_.empty()) {
    // Keep `migrating` brackets: the repartitioner re-resolves the leader
    // and either commits (which requires the bracket) or aborts via
    // EndMigration.
    ctl_->Restore(base_snapshot_, /*preserve_migrating=*/true);
  }
  // Blobs are complete job states, so only the latest committed blob per
  // job matters; walk in commit order so later drops/creates win.
  std::map<std::string, const std::string*> latest;
  for (uint64_t i = base_index_ + 1; i <= commit_index_; ++i) {
    for (const auto& [job, blob] : EntryAt(i).blobs) {
      latest[job] = &blob;
    }
  }
  for (const auto& [job, blob] : latest) {
    ctl_->InstallJobBlob(job, *blob);
  }
  // A promoted replica must never stamp a renewal plan whose TaskNode
  // pointers belong to a pre-failover hierarchy.
  ctl_->InvalidateRenewalPlans();
  leader_blob_cache_.clear();
  materialized_ = true;
}

void Replica::Demote() {
  leader_blob_cache_.clear();
  if (materialized_) {
    ctl_->ResetMetadata();
    materialized_ = false;
  }
}

void Replica::ExecuteCommittedFrees(uint64_t from_exclusive) {
  // Entries at or below `from_exclusive` were committed — and their frees
  // executed — by a previous leader before this replica learned the commit
  // index (Replicate frees before the commit index is ever broadcast).
  // Entries above it may or may not have been freed by a leader that
  // crashed right after committing; replaying is safe because no operation
  // can have re-allocated the blocks in between (the group had no leader),
  // so the liveness/double-free guards make the replay a no-op.
  uint64_t start = std::max(from_exclusive, base_index_);
  for (uint64_t i = start + 1; i <= commit_index_; ++i) {
    const LogEntry& e = EntryAt(i);
    if (!e.freed_blocks.empty()) {
      ctl_->ReleaseBlocksById(e.freed_blocks);
    }
  }
}

}  // namespace rsm
}  // namespace jiffy
