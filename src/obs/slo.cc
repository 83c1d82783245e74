#include "src/obs/slo.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace jiffy {
namespace obs {
namespace {

bool InitialSloEnabled() {
  const char* env = std::getenv("JIFFY_SLO");
  return env == nullptr || std::string(env) != "0";
}

// Applies the JIFFY_SLO env override before main (g_slo_enabled is
// constant-initialized, so ordering is safe regardless of TU order).
[[maybe_unused]] const bool g_slo_env_applied = [] {
  g_slo_enabled.store(InitialSloEnabled(), std::memory_order_relaxed);
  return true;
}();

// Index of the q-quantile in a sorted window of n > 0 samples.
size_t QuantileIndex(uint64_t n, double q) {
  return static_cast<size_t>(q * static_cast<double>(n - 1) + 0.5);
}

int64_t PercentileOf(std::vector<int64_t>& sorted_or_not, double q) {
  if (sorted_or_not.empty()) {
    return 0;
  }
  const size_t idx = QuantileIndex(sorted_or_not.size(), q);
  std::nth_element(sorted_or_not.begin(),
                   sorted_or_not.begin() + static_cast<ptrdiff_t>(idx),
                   sorted_or_not.end());
  return sorted_or_not[idx];
}

// The window's p99 sample exceeds the target exactly when the samples above
// the target fill every sorted position from the p99 index up.
bool P99Violated(uint64_t over_target, uint64_t n) {
  return over_target >= n - QuantileIndex(n, 0.99);
}

// Fraction of the window's error budget left: 1 = untouched, 0 = exhausted.
double ErrorBudgetRemaining(uint64_t errors, uint64_t n,
                            double availability) {
  const double budget = (1.0 - availability) * static_cast<double>(n);
  if (budget <= 0.0) {
    return errors == 0 ? 1.0 : 0.0;
  }
  return std::max(0.0, 1.0 - static_cast<double>(errors) / budget);
}

bool BudgetExhausted(double remaining, uint64_t errors) {
  return remaining <= 0.0 && errors > 0;
}

}  // namespace

void SetSloEnabled(bool on) {
  g_slo_enabled.store(on, std::memory_order_relaxed);
}

SloMonitor::SloMonitor() : SloMonitor(Options()) {}

SloMonitor::SloMonitor(Options options) : options_(options) {}

SloMonitor::TenantState* SloMonitor::Handle(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = tenants_[tenant];
  if (slot == nullptr) {
    slot = std::make_unique<TenantState>(this, tenant,
                                         options_.window_capacity);
  }
  return slot.get();
}

void SloMonitor::Record(const std::string& tenant, DurationNs latency_ns,
                        bool ok) {
  if (!SloEnabled()) {
    return;
  }
  Handle(tenant)->Record(latency_ns, ok);
}

void SloMonitor::TenantState::Record(DurationNs latency_ns, bool ok) {
  if (!SloEnabled()) {
    return;
  }
  const Options& opts = owner_->options_;
  TenantHealth alert_snapshot;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t cap = latencies_.size();
    const size_t slot = seq_ % cap;
    if (seq_ >= cap) {
      // The ring overwrites its oldest sample: it leaves the window counts.
      window_errors_ -= ok_[slot] == 0 ? 1 : 0;
      window_over_target_ -=
          latencies_[slot] > opts.target.p99_latency_ns ? 1 : 0;
    }
    latencies_[slot] = latency_ns;
    ok_[slot] = ok ? 1 : 0;
    ++seq_;
    if (!ok) {
      ++total_errors_;
      ++window_errors_;
    }
    window_over_target_ += latency_ns > opts.target.p99_latency_ns ? 1 : 0;
    const uint64_t n = std::min<uint64_t>(seq_, cap);
    if (P99Violated(window_over_target_, n) ||
        BudgetExhausted(ErrorBudgetRemaining(window_errors_, n,
                                             opts.target.availability),
                        window_errors_)) {
      // The first crossing alerts at once; later ones wait out the cooldown.
      const TimeNs now = RealClock::Instance()->Now();
      if (!last_alert_ns_.has_value() ||
          now - *last_alert_ns_ >= opts.alert_cooldown) {
        last_alert_ns_ = now;
        alert_snapshot = owner_->HealthLocked(this);
        fire = true;
      }
    }
  }
  if (fire) {
    AlertFn fn;
    {
      std::lock_guard<std::mutex> lock(owner_->mu_);
      fn = owner_->alert_fn_;
    }
    owner_->alerts_fired_.fetch_add(1, std::memory_order_relaxed);
    if (fn) {
      fn(alert_snapshot);
    }
  }
}

void SloMonitor::SetAlertCallback(AlertFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  alert_fn_ = std::move(fn);
}

void SloMonitor::SetOptions(const Options& options) {
  std::vector<TenantState*> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    options_ = options;
    for (auto& [tenant, state] : tenants_) {
      states.push_back(state.get());
    }
  }
  for (TenantState* state : states) {
    std::lock_guard<std::mutex> lock(state->mu_);
    state->latencies_.assign(options.window_capacity, 0);
    state->ok_.assign(options.window_capacity, 0);
    state->seq_ = 0;
    state->total_errors_ = 0;
    state->window_errors_ = 0;
    state->window_over_target_ = 0;
    state->last_alert_ns_.reset();
  }
}

// Caller holds state->mu_.
TenantHealth SloMonitor::HealthLocked(TenantState* state) {
  TenantHealth h;
  h.tenant = state->tenant_;
  h.total_ops = state->seq_;
  h.total_errors = state->total_errors_;
  const size_t cap = state->latencies_.size();
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(state->seq_, static_cast<uint64_t>(cap)));
  h.window_samples = n;
  if (n == 0) {
    return h;
  }
  std::vector<int64_t> lat(state->latencies_.begin(),
                           state->latencies_.begin() + n);
  const uint64_t errs = state->window_errors_;
  h.window_errors = errs;
  h.p50_ns = PercentileOf(lat, 0.50);
  h.p90_ns = PercentileOf(lat, 0.90);
  h.p99_ns = PercentileOf(lat, 0.99);
  h.availability =
      1.0 - static_cast<double>(errs) / static_cast<double>(n);
  h.error_budget_remaining =
      ErrorBudgetRemaining(errs, n, options_.target.availability);
  h.p99_violated = h.p99_ns > options_.target.p99_latency_ns;
  h.budget_exhausted = BudgetExhausted(h.error_budget_remaining, errs);
  return h;
}

TenantHealth SloMonitor::Health(const std::string& tenant) {
  TenantState* state = Handle(tenant);
  std::lock_guard<std::mutex> lock(state->mu_);
  return HealthLocked(state);
}

std::vector<TenantHealth> SloMonitor::HealthAll() {
  std::vector<TenantState*> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [tenant, state] : tenants_) {
      states.push_back(state.get());
    }
  }
  std::vector<TenantHealth> out;
  for (TenantState* state : states) {
    std::lock_guard<std::mutex> lock(state->mu_);
    out.push_back(HealthLocked(state));
  }
  return out;
}

std::string SloMonitor::ReportText() {
  std::string out =
      "tenant              ops      err  p50_us   p90_us   p99_us   "
      "avail    budget  status\n";
  char buf[256];
  for (const TenantHealth& h : HealthAll()) {
    std::snprintf(
        buf, sizeof(buf),
        "%-16s %8llu %8llu %7lld %8lld %8lld  %.4f  %7.2f%%  %s\n",
        h.tenant.c_str(), static_cast<unsigned long long>(h.total_ops),
        static_cast<unsigned long long>(h.total_errors),
        static_cast<long long>(h.p50_ns / 1000),
        static_cast<long long>(h.p90_ns / 1000),
        static_cast<long long>(h.p99_ns / 1000), h.availability,
        h.error_budget_remaining * 100.0,
        h.budget_exhausted ? "BUDGET-EXHAUSTED"
                           : (h.p99_violated ? "P99-VIOLATED" : "ok"));
    out += buf;
  }
  return out;
}

std::string SloMonitor::ReportJson() {
  std::string out = "[";
  char buf[512];
  bool first = true;
  for (const TenantHealth& h : HealthAll()) {
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"tenant\":\"%s\",\"total_ops\":%llu,\"total_errors\":%llu,"
        "\"window_samples\":%llu,\"window_errors\":%llu,"
        "\"p50_ns\":%lld,\"p90_ns\":%lld,\"p99_ns\":%lld,"
        "\"availability\":%.6f,\"error_budget_remaining\":%.4f,"
        "\"p99_violated\":%s,\"budget_exhausted\":%s}",
        first ? "" : ",", h.tenant.c_str(),
        static_cast<unsigned long long>(h.total_ops),
        static_cast<unsigned long long>(h.total_errors),
        static_cast<unsigned long long>(h.window_samples),
        static_cast<unsigned long long>(h.window_errors),
        static_cast<long long>(h.p50_ns), static_cast<long long>(h.p90_ns),
        static_cast<long long>(h.p99_ns), h.availability,
        h.error_budget_remaining, h.p99_violated ? "true" : "false",
        h.budget_exhausted ? "true" : "false");
    out += buf;
    first = false;
  }
  out += "\n]";
  return out;
}

void SloMonitor::Reset() {
  std::vector<TenantState*> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [tenant, state] : tenants_) {
      states.push_back(state.get());
    }
  }
  for (TenantState* state : states) {
    std::lock_guard<std::mutex> lock(state->mu_);
    // The ring keeps its stale samples; with seq_ back at 0 they are
    // overwritten without leaving the (zeroed) window counts.
    state->seq_ = 0;
    state->total_errors_ = 0;
    state->window_errors_ = 0;
    state->window_over_target_ = 0;
    state->last_alert_ns_.reset();
  }
  alerts_fired_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace jiffy
