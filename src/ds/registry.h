// Per-data-structure server-side state shared by all clients of a data
// structure: the subscription map for notifications (§4.2.2), queue item
// accounting for maxQueueLength (§5.2), a scaling guard that serializes
// repartition decisions, and repartition latency instrumentation
// (Fig 11(b)).
//
// Keyed by (job, prefix); owned by the cluster and reachable from client
// handles. A job's states are dropped when the job deregisters.

#ifndef SRC_DS_REGISTRY_H_
#define SRC_DS_REGISTRY_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/block/notification.h"
#include "src/common/histogram.h"

namespace jiffy {

struct DsState {
  SubscriptionMap subscriptions;

  // Queue-only: live item count across segments, and the optional bound.
  std::atomic<int64_t> queue_items{0};
  std::atomic<uint64_t> max_queue_length{0};  // 0 = unbounded.

  // Guards scaling so only one actor (the background repartitioner or a
  // client growing a file/queue tail inline) scales a DS at a time;
  // competing triggers simply retry on a later operation.
  std::atomic<bool> scaling_in_progress{false};

  // Time from overload/underload detection to repartition completion
  // (Fig 11(b) left).
  Histogram repartition_latency;
  std::atomic<uint64_t> splits{0};
  std::atomic<uint64_t> merges{0};

  // --- Failure handling (DESIGN.md §10) ----------------------------------

  // Shared retry budget for all clients of this DS: retries spend from it,
  // successes replenish it (capped), so a meltdown degrades to fail-fast
  // instead of a retry storm. Initialized to Retrier::kBudgetMax.
  std::atomic<int> retry_budget{128};
  // Wire faults masked by the retry layer / total retry attempts.
  std::atomic<uint64_t> masked_faults{0};
  std::atomic<uint64_t> retries{0};
  // Monotonic redelivery-token source for queue dequeues: one token per
  // client dequeue call, so a retried dequeue whose response was lost
  // redelivers the same item instead of consuming a second one.
  std::atomic<uint64_t> next_delivery_token{0};
};

class DsRegistry {
 public:
  // Fetches (creating on first use) the state for (job, prefix).
  std::shared_ptr<DsState> GetOrCreate(const std::string& job,
                                       const std::string& prefix);

  // Lookup without creation; nullptr when absent.
  std::shared_ptr<DsState> Find(const std::string& job,
                                const std::string& prefix) const;

  // Drops every state of `job`. Handles still open keep theirs alive
  // through their shared_ptr.
  void RemoveJob(const std::string& job);

  size_t size() const;

 private:
  static std::string Key(const std::string& job, const std::string& prefix) {
    return job + "/" + prefix;
  }

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<DsState>> states_;
};

}  // namespace jiffy

#endif  // SRC_DS_REGISTRY_H_
