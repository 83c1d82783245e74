// One member of a replicated controller group (DESIGN.md §14).
//
// A Replica pairs a Controller with its position in a Raft-style metadata
// log. The leader's controller is *materialized* (it holds the live job
// hierarchies and executes operations against the shared data plane);
// follower controllers are empty shells that merely store the log — per-job
// metadata blobs captured by the leader — and materialize only on
// promotion. This "replicate outputs, not inputs" scheme keeps the quorum
// path cheap (serialize the affected job, ship bytes) and makes follower
// apply deterministic by construction: installing a blob cannot diverge,
// re-executing an operation could.
//
// Thread-safety: everything except the atomics below is guarded by the
// owning ControllerGroup's mutex — elections, appends, and Replicate all
// run under it, serializing log mutations exactly like a single Raft
// thread. MayServeReads()/LeaderHint() read only atomics so the
// lookup-heavy controller paths never touch the group lock.

#ifndef SRC_RSM_REPLICA_H_
#define SRC_RSM_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/config.h"
#include "src/common/status.h"
#include "src/core/controller.h"
#include "src/core/meta_log.h"

namespace jiffy {
namespace rsm {

class ControllerGroup;

// Injected crash points for the fault matrix (tests arm one via
// ControllerGroup::ArmCrash; it fires once and crashes the replica).
enum class CrashPoint {
  kNone = 0,
  // Leader inside Replicate: after appending to its own log, before any
  // follower has seen the entry (the entry must NOT survive failover).
  kLeaderAfterAppend,
  // Leader after the fan-out, before advancing its commit index (the entry
  // reached a quorum of logs and MUST survive failover).
  kLeaderAfterReplicate,
  // Leader after quorum commit, before acknowledging the client (the op is
  // durable; the client's retry must observe exactly-once semantics).
  kLeaderAfterCommit,
  // Follower receiving AppendEntries: crash before storing the entries.
  kFollowerBeforeAppend,
  // Follower crash after durably appending but before the ack reaches the
  // leader (the leader may or may not still reach quorum).
  kFollowerAfterAppend,
  // Follower crash in the middle of InstallSnapshot (snapshot discarded).
  kFollowerDuringSnapshotInstall,
};

// One metadata-log entry: the complete post-state of every job the
// operation touched. An empty blob means "the job was dropped".
struct LogEntry {
  uint64_t term = 0;
  uint64_t index = 0;
  std::string op;
  std::vector<std::pair<std::string, std::string>> blobs;  // job → state
  // Packed BlockIds the operation allocated. If the entry dies (conflict
  // truncation after a failed leader), its originator frees these — an
  // uncommitted entry is the only holder of such blocks.
  std::vector<uint64_t> new_blocks;
  // Packed BlockIds whose destructive free was deferred to commit
  // (Controller::ReplicatedApplyScope). Executed once, by whichever leader
  // first advances its commit index past the entry.
  std::vector<uint64_t> freed_blocks;
  // Replica index that appended this entry as leader (GC ownership).
  int origin = -1;
};

class Replica : public MetadataLog {
 public:
  Replica(int index, ControllerGroup* group, Controller* controller,
          Clock* clock, const JiffyConfig& config);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // --- MetadataLog ----------------------------------------------------------

  // Leader-only: executes `fn` live, captures the affected jobs' post-state
  // blobs, quorum-commits the entry, and only then acknowledges. On lost
  // quorum the local state is rolled back to the captured pre-state blobs
  // and kUnavailable is returned (the op is "not committed → not visible").
  Status Replicate(const char* op, const std::vector<std::string>& jobs,
                   const std::function<Status()>& fn) override;

  // Lock-free read-lease check: leader + unexpired lease + past the
  // previous leader's possible lease window.
  bool MayServeReads() override;

  int LeaderHint() const override {
    return leader_hint_.load(std::memory_order_relaxed);
  }

  // --- Introspection (tests / bench) ---------------------------------------

  Controller* controller() { return ctl_; }
  int index() const { return index_; }
  bool is_leader() const { return leader_.load(std::memory_order_relaxed); }
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }
  uint64_t term() const { return current_term_; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t last_index() const {
    return base_index_ + static_cast<uint64_t>(log_.size());
  }
  // Jobs with a cached blob (a dropped job leaves none).
  size_t blob_cache_size() const;

 private:
  friend class ControllerGroup;

  uint64_t TermAt(uint64_t index) const {
    if (index == base_index_) {
      return base_term_;
    }
    return log_[index - base_index_ - 1].term;
  }
  uint64_t LastTerm() const { return TermAt(last_index()); }
  const LogEntry& EntryAt(uint64_t index) const {
    return log_[index - base_index_ - 1];
  }

  // AppendEntries receiver. Returns false (with the follower's term) when
  // the term is stale or the prev check fails; the leader backs off and
  // retries from an earlier index. Conflicting suffixes are truncated with
  // origin GC (see TruncateFrom).
  bool HandleAppend(uint64_t term, uint64_t prev_index, uint64_t prev_term,
                    const std::vector<LogEntry>& entries,
                    uint64_t leader_commit, int leader_index,
                    uint64_t* term_out);

  // RequestVote receiver: grants iff the candidate's term is current, this
  // replica has not voted for someone else this term, and the candidate's
  // log is at least as up-to-date (the Raft election safety rule).
  bool HandleVote(uint64_t term, int candidate, uint64_t last_log_index,
                  uint64_t last_log_term);

  // InstallSnapshot receiver: replaces the log prefix with a snapshot taken
  // at an applied-index barrier on the leader.
  bool HandleInstallSnapshot(uint64_t term, const std::string& snapshot,
                             uint64_t snap_index, uint64_t snap_term,
                             int leader_index);

  // Drops log entries at `from_index` and above. Entries this replica
  // originated (as a failed leader) free their `new_blocks` — they were
  // never committed anywhere, so this is the orphan-block GC for
  // crash-before-quorum effects on the shared data plane.
  void TruncateFrom(uint64_t from_index);

  // Rebuilds the controller from base snapshot + committed blobs (latest
  // blob per job wins, in log order). Called on promotion.
  void Materialize();

  // Follower/demotion cleanup: clears any materialized state so a stale
  // pre-failover hierarchy can never serve again.
  void Demote();

  // Stores `blob` as the job's cached blob; an empty blob (the job was
  // dropped) erases the entry instead. Caller holds the group mutex.
  void CacheBlob(const std::string& job, std::string blob);

  // Executes deferred frees of entries in (upto_exclusive, commit_index_]
  // that this replica has not yet executed. Idempotent across leaders: the
  // allocator's double-free guard plus the liveness check in
  // Controller::PerformDeferredFrees make replays harmless.
  void ExecuteCommittedFrees(uint64_t from_exclusive);

  const int index_;
  ControllerGroup* const group_;
  Controller* const ctl_;
  Clock* const clock_;
  const JiffyConfig config_;

  // "Durable" state: survives Crash()/Restart().
  uint64_t current_term_ = 0;
  uint64_t voted_term_ = 0;
  int voted_for_ = -1;
  std::vector<LogEntry> log_;
  std::string base_snapshot_;  // Snapshot covering indices <= base_index_.
  uint64_t base_index_ = 0;
  uint64_t base_term_ = 0;

  // Volatile state: reset on crash.
  uint64_t commit_index_ = 0;
  bool materialized_ = false;
  // Leader-side cache of each job's blob as of the last appended entry
  // (guarded by the group mutex). Every logged mutation flows through
  // Replicate, so a cache hit is the logged pre-state: the hot path
  // serializes each affected job once (the post-state) instead of twice,
  // and the cached copy doubles as the rollback image on lost quorum.
  // Lease renewals are served outside Replicate, so the cache lags the
  // live lease stamps until the job's next logged op; a lost-quorum
  // rollback may rewind those stamps, but only on a leader that demotes
  // itself in the same step, and its successor restarts every lease
  // (Controller::RestartLeases). A dropped job has no entry, so
  // deregistered jobs leave nothing behind. Cleared on any transition that
  // can change ctl_ outside Replicate (promotion, demotion, crash,
  // truncation) — a miss just re-captures.
  std::map<std::string, std::string> leader_blob_cache_;

  // Lock-free flags for the read path.
  std::atomic<bool> leader_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<int> leader_hint_{-1};
  std::atomic<TimeNs> lease_expiry_{0};
  std::atomic<TimeNs> reads_ok_after_{0};
};

}  // namespace rsm
}  // namespace jiffy

#endif  // SRC_RSM_REPLICA_H_
