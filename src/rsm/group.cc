#include "src/rsm/group.h"

#include <algorithm>
#include <utility>

namespace jiffy {
namespace rsm {

namespace {

// Modeled wire size of one replication RPC envelope (headers, indices,
// terms) on top of the payload bytes.
constexpr size_t kRpcEnvelopeBytes = 64;

size_t EntryWireBytes(const LogEntry& e) {
  size_t bytes = kRpcEnvelopeBytes;
  for (const auto& [job, blob] : e.blobs) {
    bytes += job.size() + blob.size();
  }
  bytes += 8 * (e.new_blocks.size() + e.freed_blocks.size());
  return bytes;
}

}  // namespace

ControllerGroup::ControllerGroup(const JiffyConfig& config, Clock* clock,
                                 std::vector<Controller*> controllers,
                                 Transport* net)
    : config_(config),
      clock_(clock),
      net_(net),
      partitioned_(controllers.size(), false),
      armed_(controllers.size(), CrashPoint::kNone) {
  replicas_.reserve(controllers.size());
  for (size_t i = 0; i < controllers.size(); ++i) {
    replicas_.push_back(std::make_unique<Replica>(
        static_cast<int>(i), this, controllers[i], clock, config));
    controllers[i]->AttachMetadataLog(replicas_.back().get());
  }
}

int ControllerGroup::ReachableCountLocked(int i) const {
  int n = 0;
  for (int j = 0; j < size(); ++j) {
    if (AliveLocked(j) && ReachableLocked(i, j)) {
      ++n;
    }
  }
  return n;
}

void ControllerGroup::ChargeMessage(size_t req_bytes, size_t resp_bytes) {
  if (net_ == nullptr) {
    return;
  }
  if (charge_batching_) {
    ++batch_msgs_;
    batch_req_bytes_ += req_bytes;
    batch_resp_bytes_ += resp_bytes;
    return;
  }
  net_->RoundTrip(req_bytes, resp_bytes);
}

bool ControllerGroup::MaybeCrashLocked(int i, CrashPoint point) {
  if (armed_[static_cast<size_t>(i)] != point) {
    return false;
  }
  armed_[static_cast<size_t>(i)] = CrashPoint::kNone;
  CrashLocked(i);
  return true;
}

void ControllerGroup::CrashLocked(int i) {
  Replica* r = replicas_[static_cast<size_t>(i)].get();
  r->crashed_.store(true, std::memory_order_release);
  r->leader_.store(false, std::memory_order_release);
  r->lease_expiry_.store(0, std::memory_order_release);
  r->reads_ok_after_.store(0, std::memory_order_release);
  r->Demote();
  // Volatile Raft state is lost; the commit index is relearned from
  // whichever leader the replica rejoins.
  r->commit_index_ = r->base_index_;
}

bool ControllerGroup::SyncFollowerLocked(int li, int f) {
  Replica* leader = replicas_[static_cast<size_t>(li)].get();
  Replica* fol = replicas_[static_cast<size_t>(f)].get();
  uint64_t next =
      std::min(leader->last_index(), fol->last_index()) + 1;
  // Bounded back-off loop: `next` only moves down (toward the snapshot
  // base) or terminates, so this cannot spin forever.
  for (;;) {
    if (next <= leader->base_index_) {
      // The entries the follower needs are compacted away — ship the
      // snapshot first, then the remaining suffix.
      ChargeMessage(leader->base_snapshot_.size() + kRpcEnvelopeBytes,
                    kRpcEnvelopeBytes);
      if (!fol->HandleInstallSnapshot(leader->current_term_,
                                      leader->base_snapshot_,
                                      leader->base_index_, leader->base_term_,
                                      li)) {
        return false;
      }
      next = leader->base_index_ + 1;
    }
    const uint64_t prev = next - 1;
    std::vector<LogEntry> entries(
        leader->log_.begin() +
            static_cast<long>(next - leader->base_index_ - 1),
        leader->log_.end());
    size_t bytes = kRpcEnvelopeBytes;
    for (const LogEntry& e : entries) {
      bytes += EntryWireBytes(e);
    }
    ChargeMessage(bytes, kRpcEnvelopeBytes);
    uint64_t fterm = 0;
    if (fol->HandleAppend(leader->current_term_, prev, leader->TermAt(prev),
                          entries, leader->commit_index_, li, &fterm)) {
      return true;
    }
    if (fterm > leader->current_term_ || fol->crashed()) {
      return false;
    }
    if (prev <= leader->base_index_) {
      // Mismatch at the base itself: the follower's log diverges below our
      // snapshot — force the snapshot branch.
      next = leader->base_index_;
    } else {
      --next;
    }
  }
}

int ControllerGroup::BroadcastAppendLocked(int li) {
  int acks = 1;  // The leader's own log holds the entries.
  // Fan-out is parallel on a real wire: accumulate per-follower charges and
  // apply them as one batched exchange (one propagation, summed bytes).
  charge_batching_ = true;
  for (int p = 0; p < size(); ++p) {
    if (p == li || !AliveLocked(p) || !ReachableLocked(li, p)) {
      continue;
    }
    if (SyncFollowerLocked(li, p)) {
      ++acks;
    }
  }
  charge_batching_ = false;
  if (batch_msgs_ > 0 && net_ != nullptr) {
    net_->RoundTripBatch(batch_msgs_, batch_req_bytes_, batch_resp_bytes_);
  }
  batch_msgs_ = 0;
  batch_req_bytes_ = 0;
  batch_resp_bytes_ = 0;
  return acks;
}

Status ControllerGroup::EnsureLeader() {
  std::lock_guard<std::mutex> lock(mu_);
  return EnsureLeaderLocked();
}

Status ControllerGroup::EnsureLeaderLocked() {
  for (int i = 0; i < size(); ++i) {
    Replica* r = replicas_[static_cast<size_t>(i)].get();
    if (r->is_leader() && !r->crashed() &&
        ReachableCountLocked(i) >= QuorumSize()) {
      MaybeHeartbeatLocked(i);
      if (r->is_leader()) {
        return Status::Ok();
      }
      break;  // Heartbeat lost quorum; fall through to an election.
    }
  }
  // Failure detection costs one election timeout of modeled time; charge it
  // on sleeping transports so benches observe a realistic failover window
  // (virtual-time tests stay instant).
  if (net_ != nullptr && net_->mode() == Transport::Mode::kSleep) {
    clock_->SleepFor(config_.rsm_election_timeout);
  }
  // Read-lease guard: a live but unreachable previous leader may keep
  // serving leased reads until this instant.
  TimeNs stale_lease = 0;
  for (const auto& r : replicas_) {
    if (r->is_leader() && !r->crashed()) {
      stale_lease = std::max(
          stale_lease, r->lease_expiry_.load(std::memory_order_acquire));
    }
  }
  // Candidates in log up-to-dateness order — the order Raft's vote rule
  // favors anyway; trying them in it makes the election deterministic.
  std::vector<int> cands;
  for (int i = 0; i < size(); ++i) {
    if (AliveLocked(i)) {
      cands.push_back(i);
    }
  }
  std::sort(cands.begin(), cands.end(), [&](int a, int b) {
    Replica* ra = replicas_[static_cast<size_t>(a)].get();
    Replica* rb = replicas_[static_cast<size_t>(b)].get();
    if (ra->LastTerm() != rb->LastTerm()) {
      return ra->LastTerm() > rb->LastTerm();
    }
    if (ra->last_index() != rb->last_index()) {
      return ra->last_index() > rb->last_index();
    }
    return a < b;
  });
  uint64_t next_term = 0;
  for (const auto& r : replicas_) {
    next_term = std::max(next_term, r->current_term_);
  }
  ++next_term;
  for (int cand : cands) {
    if (ReachableCountLocked(cand) < QuorumSize()) {
      continue;
    }
    Replica* c = replicas_[static_cast<size_t>(cand)].get();
    c->current_term_ = std::max(c->current_term_ + 1, next_term);
    c->voted_term_ = c->current_term_;
    c->voted_for_ = cand;
    int votes = 1;
    for (int p = 0; p < size(); ++p) {
      if (p == cand || !AliveLocked(p) || !ReachableLocked(cand, p)) {
        continue;
      }
      ChargeMessage(kRpcEnvelopeBytes, kRpcEnvelopeBytes);
      if (replicas_[static_cast<size_t>(p)]->HandleVote(
              c->current_term_, cand, c->last_index(), c->LastTerm())) {
        ++votes;
      }
    }
    if (votes >= QuorumSize()) {
      Status st = PromoteLocked(cand, stale_lease);
      if (st.ok()) {
        return st;
      }
    }
    next_term = c->current_term_ + 1;
  }
  return Unavailable("no controller quorum: election failed");
}

Status ControllerGroup::PromoteLocked(int i, TimeNs stale_lease_expiry) {
  Replica* r = replicas_[static_cast<size_t>(i)].get();
  const uint64_t old_commit = r->commit_index_;
  r->leader_.store(true, std::memory_order_release);
  r->leader_hint_.store(i, std::memory_order_relaxed);
  // Commit a no-op in the new term: the only way a leader may conclude that
  // inherited entries are committed (Raft §5.4.2 — never count replicas for
  // an old term's entries).
  LogEntry noop;
  noop.term = r->current_term_;
  noop.index = r->last_index() + 1;
  noop.op = "noop";
  noop.origin = i;
  r->log_.push_back(std::move(noop));
  const int acks = BroadcastAppendLocked(i);
  if (acks < QuorumSize()) {
    r->log_.pop_back();
    r->leader_.store(false, std::memory_order_release);
    return Unavailable("candidate could not commit its no-op");
  }
  r->commit_index_ = r->last_index();
  r->Materialize();
  // Deferred frees of entries committed in the failover window (a previous
  // leader may have died between quorum and executing them).
  r->ExecuteCommittedFrees(old_commit);
  const TimeNs now = clock_->Now();
  const TimeNs reads_ok_after = std::max(now, stale_lease_expiry);
  r->reads_ok_after_.store(reads_ok_after, std::memory_order_release);
  // Renewals are never logged, so restart every lease where this leader's
  // reads begin (see RestartLeases) — before its read lease is granted, so
  // it serves no renewal ahead of the restart.
  r->ctl_->RestartLeases(reads_ok_after);
  r->lease_expiry_.store(now + config_.rsm_read_lease,
                         std::memory_order_release);
  // Second round so followers learn the advanced commit index promptly.
  BroadcastAppendLocked(i);
  return Status::Ok();
}

void ControllerGroup::MaybeHeartbeatLocked(int li) {
  Replica* r = replicas_[static_cast<size_t>(li)].get();
  const TimeNs now = clock_->Now();
  if (now + config_.rsm_read_lease / 2 <
      r->lease_expiry_.load(std::memory_order_acquire)) {
    return;  // Lease still fresh.
  }
  const int acks = BroadcastAppendLocked(li);
  if (acks >= QuorumSize()) {
    r->lease_expiry_.store(now + config_.rsm_read_lease,
                           std::memory_order_release);
  } else {
    // Cut off from the quorum: stop serving immediately (conservative —
    // the lease would allow reads until expiry) and force an election.
    r->leader_.store(false, std::memory_order_release);
    r->lease_expiry_.store(0, std::memory_order_release);
  }
}

void ControllerGroup::MaybeCompactLocked(int li, bool force) {
  Replica* r = replicas_[static_cast<size_t>(li)].get();
  if (r->commit_index_ <= r->base_index_) {
    return;
  }
  if (!force &&
      r->commit_index_ - r->base_index_ < config_.rsm_snapshot_threshold) {
    return;
  }
  // Applied-index barrier: the group lock is held, so no replicated
  // mutation is in flight anywhere — every committed entry is applied on
  // this leader, and the snapshot covers exactly [1, commit_index_].
  std::string snap = r->ctl_->Snapshot(r->commit_index_);
  const uint64_t snap_index = r->commit_index_;
  const uint64_t snap_term = r->TermAt(snap_index);
  for (int p = 0; p < size(); ++p) {
    if (p == li || !AliveLocked(p) || !ReachableLocked(li, p)) {
      continue;
    }
    ChargeMessage(snap.size() + kRpcEnvelopeBytes, kRpcEnvelopeBytes);
    replicas_[static_cast<size_t>(p)]->HandleInstallSnapshot(
        r->current_term_, snap, snap_index, snap_term, li);
  }
  r->log_.erase(r->log_.begin(),
                r->log_.begin() + static_cast<long>(snap_index -
                                                    r->base_index_));
  r->base_snapshot_ = std::move(snap);
  r->base_index_ = snap_index;
  r->base_term_ = snap_term;
}

Controller* ControllerGroup::LeaderController() {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = EnsureLeaderLocked();
  (void)st;  // No quorum is handled below: fall back to a live replica.
  // Highest term wins: a partitioned old leader may still carry its flag.
  Replica* best = nullptr;
  for (const auto& r : replicas_) {
    if (r->is_leader() && !r->crashed() &&
        (best == nullptr || r->current_term_ > best->current_term_)) {
      best = r.get();
    }
  }
  if (best != nullptr) {
    return best->controller();
  }
  // No quorum: hand back some live replica; its mutating ops answer
  // kUnavailable, which is the honest state of the control plane.
  for (const auto& r : replicas_) {
    if (!r->crashed()) {
      return r->controller();
    }
  }
  return replicas_[0]->controller();
}

int ControllerGroup::leader_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  // A partitioned old leader keeps its flag until it hears the new term, so
  // two replicas can claim leadership; the one with the higher term is the
  // real one.
  int best = -1;
  for (int i = 0; i < size(); ++i) {
    const Replica* r = replicas_[static_cast<size_t>(i)].get();
    if (r->is_leader() && !r->crashed() &&
        (best < 0 ||
         r->current_term_ > replicas_[static_cast<size_t>(best)]->current_term_)) {
      best = i;
    }
  }
  return best;
}

void ControllerGroup::Crash(int i) {
  std::lock_guard<std::mutex> lock(mu_);
  CrashLocked(i);
}

void ControllerGroup::Restart(int i) {
  std::lock_guard<std::mutex> lock(mu_);
  replicas_[static_cast<size_t>(i)]->crashed_.store(
      false, std::memory_order_release);
}

void ControllerGroup::Partition(int i) {
  std::lock_guard<std::mutex> lock(mu_);
  partitioned_[static_cast<size_t>(i)] = true;
}

void ControllerGroup::Heal() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(partitioned_.begin(), partitioned_.end(), false);
}

void ControllerGroup::ArmCrash(int i, CrashPoint point) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_[static_cast<size_t>(i)] = point;
}

Status ControllerGroup::CompactNow() {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = EnsureLeaderLocked();
  if (!st.ok()) {
    return st;
  }
  for (int i = 0; i < size(); ++i) {
    if (replicas_[static_cast<size_t>(i)]->is_leader()) {
      MaybeCompactLocked(i, /*force=*/true);
      return Status::Ok();
    }
  }
  return Unavailable("no leader to compact");
}

}  // namespace rsm
}  // namespace jiffy
