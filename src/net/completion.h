// Completion-tag window: bounded out-of-order completion tracking.
//
// The wire keeps many RPCs in flight per connection; responses complete in
// whatever order the server answers, matched back by tag. CompletionWindow
// is the shared bookkeeping both the async TCP client and the in-process
// Pipeline build on: it allocates tags in submission order, bounds the
// number outstanding (backpressure), records per-tag statuses as they
// arrive, and reports errors by SUBMISSION order — the first failure is the
// lowest tag, never whichever response happened to race home first.
//
// A batch reserves all of its slots in one Begin(n): a caller that took its
// tags one at a time and sent them only at the end could hold some slots
// while it blocks for more, and two such callers on one full window would
// wait on each other forever.

#ifndef SRC_NET_COMPLETION_H_
#define SRC_NET_COMPLETION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace jiffy {

// A tag paired with the status its operation completed with.
struct TaggedStatus {
  uint64_t tag = 0;
  Status status;
};

class CompletionWindow {
 public:
  // Up to `depth` tags may be outstanding at once (0 = unbounded).
  explicit CompletionWindow(size_t depth);

  CompletionWindow(const CompletionWindow&) = delete;
  CompletionWindow& operator=(const CompletionWindow&) = delete;

  // Allocates `n` consecutive tags and returns the first, blocking until
  // `n` slots are free at once. Tags are monotonically increasing from 1 —
  // lower tag == earlier submission. Requires 1 <= n <= depth() (any n when
  // unbounded).
  uint64_t Begin(size_t n = 1);

  // Records the completion of `tag` (any order) and frees its window slot.
  void Complete(uint64_t tag, Status status);

  // Blocks until nothing is outstanding, then returns the status of the
  // LOWEST failed tag recorded since the previous TakeErrors (Ok when every
  // completion succeeded). Does NOT clear the error set — call TakeErrors()
  // afterwards for per-tag resolution (and to start a fresh epoch).
  Status Drain();

  // All failures recorded since the last TakeErrors, lowest tag first.
  // Clears the error set. Does not wait for outstanding tags.
  std::vector<TaggedStatus> TakeErrors();

  size_t in_flight() const;

  // The bound passed at construction (0 = unbounded).
  size_t depth() const { return depth_; }

  // High-water mark of concurrently outstanding tags since construction —
  // how deep the pipeline actually ran, not just its configured bound.
  size_t max_in_flight() const;

 private:
  const size_t depth_;
  mutable std::mutex mu_;
  std::condition_variable cv_slot_;   // A window slot freed.
  std::condition_variable cv_drain_;  // outstanding_ hit zero.
  uint64_t next_tag_ = 1;
  size_t outstanding_ = 0;
  size_t high_water_ = 0;
  // Failed completions keyed by tag; std::map keeps submission order so the
  // first error is O(1) at the front.
  std::map<uint64_t, Status> errors_;
};

}  // namespace jiffy

#endif  // SRC_NET_COMPLETION_H_
