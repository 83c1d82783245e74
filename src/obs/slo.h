// Per-tenant SLO / health monitoring (see DESIGN.md §6 "Observability").
//
// Every client data-structure op reports (tenant, latency, ok) into a
// SloMonitor owned by the cluster assembly. The monitor keeps a rolling
// window of recent samples per tenant (bounded ring, default 8192), from
// which it computes latency quantiles (p50/p90/p99), availability, and the
// remaining error budget against a target (e.g. 99.9% availability means a
// budget of 0.1% of requests; the budget fraction remaining hits 0 when
// errors in the window reach that allowance).
//
// Threshold callbacks: when a tenant's windowed p99 exceeds the latency
// target or its error budget is exhausted, the monitor fires the registered
// alert callback. Every record checks the thresholds, so the first record
// whose window crosses one alerts at once, whatever the clock reads; a
// per-tenant cooldown spaces only the later alerts, so a sustained violation
// produces one alert per cooldown period, not one per op.
//
// Cost model: recording is gated on JIFFY_SLO (default on) AND the obs
// master flag; disabled, Record() is one relaxed load and a branch. Enabled,
// it is one short hold of the per-tenant mutex: a ring store plus two
// running window counts (failed samples, samples above the p99 target),
// from which the threshold check is O(1) and gives exactly the verdict of
// the sorted window. The clock is read only while the window is over a
// threshold, and the copied, sorted TenantHealth snapshot is built only for
// an alert that fires and for Health()/HealthAll()/the reports. Callers
// cache the per-tenant handle (TenantState*) at client-construction time
// so the hot path never touches the tenant map.

#ifndef SRC_OBS_SLO_H_
#define SRC_OBS_SLO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/obs/metrics.h"

namespace jiffy {
namespace obs {

// SLO opt-out flag, additionally gated on the obs master flag. Constant-
// initialized; the env override JIFFY_SLO=0 is applied before main by an
// initializer in slo.cc.
inline std::atomic<bool> g_slo_enabled{true};

inline bool SloEnabled() {
  return g_slo_enabled.load(std::memory_order_relaxed) && Enabled();
}

void SetSloEnabled(bool on);

struct SloTarget {
  int64_t p99_latency_ns = 50 * kMillisecond;
  double availability = 0.999;  // Error budget: 1 - availability.
};

// One tenant's windowed health, as computed at report time.
struct TenantHealth {
  std::string tenant;
  uint64_t window_samples = 0;  // Samples currently in the window.
  uint64_t total_ops = 0;       // Lifetime ops recorded.
  uint64_t total_errors = 0;    // Lifetime failed ops.
  uint64_t window_errors = 0;
  int64_t p50_ns = 0;
  int64_t p90_ns = 0;
  int64_t p99_ns = 0;
  double availability = 1.0;          // Windowed success fraction.
  double error_budget_remaining = 1.0;  // 1 = untouched, 0 = exhausted.
  bool p99_violated = false;
  bool budget_exhausted = false;
};

class SloMonitor {
 public:
  struct Options {
    SloTarget target;
    size_t window_capacity = 8192;             // Samples per tenant.
    DurationNs alert_cooldown = 1 * kSecond;   // Real time between alerts.
  };

  // Fired (synchronously, on the recording thread) when a tenant crosses a
  // threshold; `health` is the violating snapshot.
  using AlertFn = std::function<void(const TenantHealth& health)>;

  SloMonitor();  // Default options (out of line: nested-NSDMI rules).
  explicit SloMonitor(Options options);
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  // Stable per-tenant recording handle; cache it (clients resolve it once
  // at construction so Record() skips the tenant map).
  class TenantState;
  TenantState* Handle(const std::string& tenant);

  // Convenience one-shot record (map lookup per call).
  void Record(const std::string& tenant, DurationNs latency_ns, bool ok);

  void SetAlertCallback(AlertFn fn);

  // Replaces the targets/window parameters. Drops all samples and window
  // counts (the window capacity may change) and re-arms every tenant's
  // alert; cached TenantState handles stay valid. Not synchronized against
  // concurrent Record() — call during setup, before traffic.
  void SetOptions(const Options& options);

  // Health of one tenant / all tenants (sorted by tenant id).
  TenantHealth Health(const std::string& tenant);
  std::vector<TenantHealth> HealthAll();

  // Human-readable table / JSON array of every tenant's health.
  std::string ReportText();
  std::string ReportJson();

  // Alerts fired since construction or the last Reset() (for tests and
  // health dumps).
  uint64_t alerts_fired() const {
    return alerts_fired_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

  // Drops all samples, window counts and alert state, re-arming every
  // tenant's alert (tenant registrations survive).
  void Reset();

 private:
  TenantHealth HealthLocked(TenantState* state);

  Options options_;
  std::atomic<uint64_t> alerts_fired_{0};
  std::mutex mu_;  // Guards tenants_ map shape and alert_fn_.
  AlertFn alert_fn_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
};

// Per-tenant rolling window. Public so clients can hold a typed handle;
// treat as opaque outside slo.cc except for Record().
class SloMonitor::TenantState {
 public:
  TenantState(SloMonitor* owner, std::string tenant, size_t capacity)
      : owner_(owner), tenant_(std::move(tenant)) {
    latencies_.resize(capacity);
    ok_.resize(capacity);
  }

  // Gated on SloEnabled() internally; cheap no-op when disabled.
  void Record(DurationNs latency_ns, bool ok);

 private:
  friend class SloMonitor;

  SloMonitor* owner_;
  std::string tenant_;
  std::mutex mu_;
  std::vector<int64_t> latencies_;  // Ring, slot = seq % capacity.
  std::vector<uint8_t> ok_;
  uint64_t seq_ = 0;        // Samples recorded since the last reset.
  uint64_t total_errors_ = 0;
  // Counts over the window (the last min(seq_, capacity) samples): failed
  // samples, and samples above the p99 target. A sample adds to them when it
  // enters the ring and subtracts when the ring overwrites it.
  uint64_t window_errors_ = 0;
  uint64_t window_over_target_ = 0;
  // RealClock reading of the last alert; empty until the first, so the first
  // crossing fires at once whatever the clock reads (steady_clock counts from
  // boot) and the cooldown spaces only later alerts.
  std::optional<TimeNs> last_alert_ns_;
};

}  // namespace obs
}  // namespace jiffy

#endif  // SRC_OBS_SLO_H_
