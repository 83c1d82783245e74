// Seam between the controller and the replicated metadata log
// (DESIGN.md §14).
//
// When a controller participates in a replicated group (src/rsm/), every
// mutating entry point routes through MetadataLog::Replicate before its
// effects become visible: the leader executes the operation live against
// the shared data plane, captures the complete serialized metadata state of
// every affected job (the same per-job blob format Controller::Snapshot
// uses), and appends {op, job blobs} to the log. The entry is acknowledged
// to the client only after a quorum of replicas has durably appended it —
// "replicate outputs, not inputs": followers never re-execute, they install
// blobs, so apply is deterministic by construction and never touches the
// data plane.
//
// Read-heavy paths (partition-map fetches, path resolution) and lease
// renewals do not go through the log: they are served locally by the
// leader under a read lease (MayServeReads), renewed by quorum contact. A
// renewal only decides when data may be reclaimed, so it is not durable
// state; a promoted leader restarts every lease instead. A deposed or
// stale controller answers kUnavailable and the client re-resolves the
// leader.
//
// A controller with no attached log (the default, controller_replicas = 1)
// behaves exactly as before: Replicate is never consulted.

#ifndef SRC_CORE_META_LOG_H_
#define SRC_CORE_META_LOG_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace jiffy {

class MetadataLog {
 public:
  virtual ~MetadataLog() = default;

  // Replicates one mutating controller operation. `op` is a static label
  // for the log entry ("CasTag", "CommitSplit", ...). `jobs` names the
  // jobs whose metadata the operation may touch (empty = all registered
  // jobs, used by cross-job sweeps like HandleServerFailure). `fn` performs
  // the operation against the local controller; the implementation invokes
  // it re-entrantly (the controller suppresses re-replication via a
  // thread-local bypass flag while inside).
  //
  // Returns fn's status once the entry is quorum-committed. If this replica
  // is not the leader (or lost leadership mid-flight), returns kUnavailable
  // without leaving any speculative effects behind — the implementation
  // rolls the local state back to the last committed blobs.
  virtual Status Replicate(const char* op, const std::vector<std::string>& jobs,
                           const std::function<Status()>& fn) = 0;

  // True while this replica is the leader and holds a valid read lease
  // (quorum contact within the lease window). Lookup paths check this
  // before serving locally.
  virtual bool MayServeReads() = 0;

  // Identity of the current leader as known to this replica (replica index
  // within its group, -1 when unknown). Returned in kUnavailable messages
  // as a redirect hint.
  virtual int LeaderHint() const = 0;
};

}  // namespace jiffy

#endif  // SRC_CORE_META_LOG_H_
