// Client-side retry policy for the fault-injectable data plane
// (DESIGN.md §10).
//
// Every wire exchange a client issues can now time out or fail transiently
// (Transport::Exchange); the Retrier decides — per operation — whether a
// failed exchange is retried and how long to back off. Three independent
// brakes bound the work an unlucky operation can generate:
//   1. attempts:  at most `max_attempts` exchanges per operation;
//   2. deadline:  the operation's cumulative elapsed time (including the
//                 backoff about to be taken) must stay under `op_deadline`;
//   3. budget:    a shared per-DS token bucket (DsState::retry_budget) that
//                 retries spend and successes replenish, so a server-side
//                 meltdown degrades to fail-fast instead of a retry storm.
//
// Only kTimeout and kUnavailable are retryable: they are the codes the
// transport's fault plan and outage windows produce, and the codes for
// which re-sending is safe at this layer (idempotency of the *operation*
// is the caller's concern — see QueueClient's redelivery tokens).

#ifndef SRC_CLIENT_RETRY_H_
#define SRC_CLIENT_RETRY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/net/network.h"

namespace jiffy {

struct RetryPolicy {
  // Total exchanges per operation (first try + retries).
  uint32_t max_attempts = 6;
  // Backoff before retry k is initial_backoff * multiplier^(k-1), capped at
  // max_backoff, then jittered by ±jitter_fraction/2.
  DurationNs initial_backoff = 50 * kMicrosecond;
  double backoff_multiplier = 2.0;
  DurationNs max_backoff = 5 * kMillisecond;
  double jitter_fraction = 0.5;
  // Per-operation wall budget; 0 = unbounded. Checked against the clock the
  // transport charges (virtual clocks never advance in kZero mode, so there
  // the attempts cap is the binding brake). KvClient also bounds a whole
  // op's retries (stale answers, failovers, lost read replies) by it, and
  // WireKvClient its stale-map rounds (RetriesExpired below), measured on
  // RealClock from the op's first retry: a reader waits out a split whose
  // map publish is still pending (DESIGN.md §9, §12).
  DurationNs op_deadline = 500 * kMillisecond;

  static bool IsRetryable(StatusCode code) {
    return code == StatusCode::kTimeout || code == StatusCode::kUnavailable;
  }
};

// Per-operation retry state. Construct one at the top of an operation;
// call ShouldRetry() after each failed exchange and Backoff() before the
// next attempt.
class Retrier {
 public:
  // Budget cap and what one retry costs; successes replenish 1. At these
  // rates a sustained fault ratio under ~33% keeps the bucket full.
  static constexpr int kBudgetMax = 128;
  static constexpr int kRetryCost = 2;

  Retrier(const RetryPolicy& policy, Clock* clock, AtomicRng* rng,
          std::atomic<int>* budget)
      : policy_(policy),
        clock_(clock),
        rng_(rng),
        budget_(budget),
        start_(clock != nullptr ? clock->Now() : 0),
        next_backoff_(policy.initial_backoff) {}

  // Decides whether the operation should re-send after failure `st`,
  // consuming retry budget when it says yes.
  bool ShouldRetry(const Status& st);

  // Sleeps the (jittered) backoff for the upcoming attempt. Sleeps only
  // when `net` is a kSleep transport — in kZero mode time is virtual and
  // blocking on it would deadlock a SimClock.
  void Backoff(const Transport* net);

  // Variant for the real-wire path (DESIGN.md §12), where there is no
  // modeled transport and time is always real: sleeps unconditionally.
  void BackoffAlways();

  // Failed exchanges observed so far (== retries performed after the
  // corresponding ShouldRetry/Backoff).
  uint32_t failures() const { return failures_; }

  // Replenishes one budget token after a successful exchange (saturating).
  static void RecordSuccess(std::atomic<int>* budget);

 private:
  // Computes the (jittered) delay for the upcoming attempt and advances the
  // exponential schedule. Jitter draws happen in every mode so seeded
  // schedules do not depend on whether the run sleeps.
  DurationNs NextDelay();

  RetryPolicy policy_;
  Clock* clock_;
  AtomicRng* rng_;
  std::atomic<int>* budget_;
  TimeNs start_;
  DurationNs next_backoff_;
  uint32_t failures_ = 0;
};

// Wall-clock bound on an op's stale-map retries, called before each retry
// with `*start` at -1 before the first. A stale answer can outlast any fixed
// retry count: after a split's final hold the source shard answers
// kStaleMetadata until the controller publishes the new map, and a refresh
// returns the old map until then. So an op keeps retrying until `budget`
// has passed on RealClock (the clock BackoffRetry sleeps on) since its
// first retry; 0 means unbounded. The clock is read only once a retry is
// needed, so an op that succeeds on its first attempt pays nothing.
bool RetriesExpired(DurationNs budget, TimeNs* start);

// Progressive backoff before stale retry `attempt` (0 = first try, no
// wait). Retries typically wait for another client's in-flight scaling op;
// on a busy machine that client may not be scheduled for a while, so spin
// first, then sleep briefly on RealClock. Inline: every op calls it once
// with attempt 0.
inline void BackoffRetry(int attempt) {
  if (attempt == 0) {
    return;
  }
  if (attempt < 4) {
    std::this_thread::yield();
    return;
  }
  RealClock::Instance()->SleepFor(std::min<DurationNs>(
      200 * kMicrosecond, static_cast<DurationNs>(attempt) * 10 * kMicrosecond));
}

}  // namespace jiffy

#endif  // SRC_CLIENT_RETRY_H_
