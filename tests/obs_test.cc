// Observability subsystem tests: metrics registry semantics, concurrent
// recording, snapshot consistency, trace-span nesting, disabled-mode cost
// paths, and the end-to-end cluster wiring (acceptance criteria: a KV /
// File / Queue workload leaves non-zero allocation, lease, and transport
// metrics in Cluster::MetricsSnapshot()).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/client/jiffy_client.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace jiffy {
namespace {

// Restores the master flag and tracer state on scope exit so a failing test
// cannot poison the rest of the suite.
class ObsStateGuard {
 public:
  ObsStateGuard()
      : enabled_(obs::Enabled()),
        trace_enabled_(obs::Tracer::Global()->enabled()) {}
  ~ObsStateGuard() {
    obs::SetEnabled(enabled_);
    obs::Tracer::Global()->SetEnabled(trace_enabled_);
    obs::Tracer::Global()->Clear();
  }

 private:
  bool enabled_;
  bool trace_enabled_;
};

// --- Counter / gauge / histogram ---------------------------------------------

TEST(ObsMetrics, CounterConcurrentIncrements) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(ObsMetrics, RegistryReturnsStableSharedPointers) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("x.ops_total");
  obs::Counter* b = registry.GetCounter("x.ops_total");
  EXPECT_EQ(a, b);  // Same name → same instance.
  EXPECT_NE(a, registry.GetCounter("y.ops_total"));
  EXPECT_EQ(registry.GetGauge("x.depth"), registry.GetGauge("x.depth"));
  EXPECT_EQ(registry.GetHistogram("x.ns"), registry.GetHistogram("x.ns"));
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.GetGauge("pool.free");
  g->Set(128);
  EXPECT_EQ(g->Value(), 128);
  g->Add(-28);
  EXPECT_EQ(g->Value(), 100);
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap.GaugeValue("pool.free"), 100);
}

TEST(ObsMetrics, HistogramThroughRegistry) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("op.latency_ns");
  for (int i = 1; i <= 100; ++i) {
    obs::Observe(h, i * 1000);
  }
  auto snap = registry.Snapshot();
  const auto& summary = snap.histograms.at("op.latency_ns");
  EXPECT_EQ(summary.count, 100u);
  EXPECT_EQ(summary.min, 1000);
  EXPECT_GE(summary.p99, summary.p50);
  EXPECT_GT(summary.mean, 0.0);
}

TEST(ObsMetrics, SnapshotIsConsistentUnderConcurrentRecording) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("c");
  Histogram* h = registry.GetHistogram("h");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // do-while guarantees at least one increment even if the main thread
    // finishes its snapshot loop before this thread is first scheduled.
    do {
      c->Increment();
      h->Record(42);
    } while (!stop.load());
  });
  // Snapshots taken mid-traffic must never observe impossible values.
  for (int i = 0; i < 50; ++i) {
    auto snap = registry.Snapshot();
    EXPECT_LE(snap.CounterValue("c"), c->Value());
    const auto& hs = snap.histograms.at("h");
    if (hs.count > 0) {
      EXPECT_EQ(hs.min, 42);
      EXPECT_EQ(hs.max, 42);
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(registry.Snapshot().CounterValue("c"), 0u);
}

TEST(ObsMetrics, DisabledModeRecordsNothing) {
  ObsStateGuard guard;
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("c");
  obs::Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h");
  obs::SetEnabled(false);
  c->Increment(7);
  g->Set(9);
  obs::Observe(h, 1234);
  { obs::ScopedTimer timer(h); }
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->count(), 0u);
  obs::SetEnabled(true);
  c->Increment(7);
  EXPECT_EQ(c->Value(), 7u);
}

TEST(ObsMetrics, NullToleranceOfHelpers) {
  // Components that never got BindMetrics record through null pointers.
  obs::Inc(nullptr);
  obs::Inc(nullptr, 5);
  obs::Observe(nullptr, 123);
  { obs::ScopedTimer timer(nullptr); }
}

TEST(ObsMetrics, PrometheusTextExposition) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::MetricsRegistry registry;
  registry.GetCounter("allocator.allocations_total")->Increment(3);
  registry.GetGauge("allocator.free_blocks")->Set(61);
  registry.GetHistogram("allocator.alloc_ns")->Record(500);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE jiffy_allocator_allocations_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("jiffy_allocator_allocations_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE jiffy_allocator_free_blocks gauge"),
            std::string::npos);
  EXPECT_NE(text.find("jiffy_allocator_alloc_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
}

// --- Labeled (per-tenant) metrics --------------------------------------------

TEST(ObsLabels, TenantOfSplitsOnColonOrDot) {
  EXPECT_EQ(obs::TenantOf("acme:etl-7"), "acme");
  EXPECT_EQ(obs::TenantOf("acme.etl-7"), "acme");  // Path-segment-safe form.
  EXPECT_EQ(obs::TenantOf("acme:etl.7"), "acme");  // First separator wins.
  EXPECT_EQ(obs::TenantOf("solo"), "solo");        // No separator: own tenant.
}

TEST(ObsLabels, LabeledMetricsAreDistinctPerLabelSet) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::MetricsRegistry registry;
  const obs::TenantLabels acme{"acme", "acme:j1", "kv"};
  const obs::TenantLabels beta{"beta", "beta:j1", "kv"};
  obs::Counter* plain = registry.GetCounter("client.ops_total");
  obs::Counter* a = registry.GetCounter("client.ops_total", acme);
  obs::Counter* b = registry.GetCounter("client.ops_total", beta);
  EXPECT_NE(plain, a);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, registry.GetCounter("client.ops_total", acme));  // Interned.
  EXPECT_EQ(registry.GetHistogram("client.latency_ns", acme),
            registry.GetHistogram("client.latency_ns", acme));
  a->Increment(3);
  b->Increment(5);
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue(
                "client.ops_total{tenant=\"acme\",job=\"acme:j1\",kind=\"kv\"}"),
            3u);
  EXPECT_EQ(snap.SumCounters("client.ops_total"), 8u);
}

TEST(ObsLabels, CardinalityCapRedirectsToOverflowBucket) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::MetricsRegistry registry;
  // Exhaust the per-registry label-set budget with distinct tenants.
  for (size_t i = 0; i < obs::MetricsRegistry::kMaxLabelSets; ++i) {
    const std::string t = "t" + std::to_string(i);
    registry.GetCounter("ops", {t, t + ":j", "kv"});
  }
  // Established sets keep their identity past the cap...
  obs::Counter* first = registry.GetCounter("ops", {"t0", "t0:j", "kv"});
  ASSERT_NE(first, nullptr);
  first->Increment();
  // ...while new sets collapse into the shared per-kind overflow bucket.
  obs::Counter* over_a = registry.GetCounter("ops", {"new1", "new1:j", "kv"});
  obs::Counter* over_b = registry.GetCounter("ops", {"new2", "new2:j", "kv"});
  EXPECT_EQ(over_a, over_b);
  EXPECT_NE(over_a, first);
  over_a->Increment(2);
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("ops{tenant=\"t0\",job=\"t0:j\",kind=\"kv\"}"),
            1u);
  EXPECT_EQ(snap.SumCounters("tenant=\"_overflow\""), 2u);
}

TEST(ObsLabels, PrometheusTextPreservesLabelBlocks) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::MetricsRegistry registry;
  registry.GetCounter("client.ops_total", {"acme", "acme:j1", "kv"})
      ->Increment(7);
  registry.GetHistogram("client.latency_ns", {"acme", "acme:j1", "kv"})
      ->Record(1000);
  const std::string text = registry.PrometheusText();
  // The label block survives sanitization as real Prometheus labels.
  EXPECT_NE(text.find("jiffy_client_ops_total{tenant=\"acme\",job=\"acme:j1\","
                      "kind=\"kv\"} 7"),
            std::string::npos);
  // Histogram quantile samples merge the label block with the quantile label.
  EXPECT_NE(text.find("tenant=\"acme\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  const size_t qpos = text.find("jiffy_client_latency_ns{");
  ASSERT_NE(qpos, std::string::npos);
  const std::string line = text.substr(qpos, text.find('\n', qpos) - qpos);
  EXPECT_NE(line.find("tenant=\"acme\""), std::string::npos);
}

// --- Histogram::Merge locking contract ---------------------------------------

TEST(ObsMetrics, HistogramMergeIsDeadlockFreeAndSelfSafe) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  // The documented contract (src/common/histogram.h): Merge snapshots the
  // source under its lock, then applies under the destination's lock — the
  // two are never held together, so concurrent cross-merges cannot deadlock.
  Histogram a, b;
  for (int i = 0; i < 100; ++i) {
    a.Record(i);
    b.Record(1000 + i);
  }
  std::thread t1([&] {
    for (int i = 0; i < 50; ++i) {
      a.Merge(b);
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 50; ++i) {
      b.Merge(a);
    }
  });
  t1.join();
  t2.join();  // Completion IS the deadlock-freedom assertion.
  EXPECT_GT(a.count(), 100u);
  EXPECT_GT(b.count(), 100u);

  // Self-merge takes the non-recursive mutex twice in sequence, not nested.
  Histogram h;
  h.Record(7);
  h.Record(9);
  h.Merge(h);
  EXPECT_EQ(h.count(), 4u);
}

// --- SLO monitor -------------------------------------------------------------

// Saves/restores the JIFFY_SLO runtime flag around a test.
class SloFlagGuard {
 public:
  SloFlagGuard() : prev_(obs::g_slo_enabled.load()) {
    obs::SetSloEnabled(true);
  }
  ~SloFlagGuard() { obs::SetSloEnabled(prev_); }

 private:
  bool prev_;
};

TEST(ObsSlo, WindowedQuantilesAndAvailability) {
  ObsStateGuard obs_guard;
  obs::SetEnabled(true);
  SloFlagGuard slo_guard;
  obs::SloMonitor::Options opts;
  opts.target.p99_latency_ns = 10 * kMillisecond;
  opts.target.availability = 0.9;
  opts.window_capacity = 64;
  obs::SloMonitor slo(opts);
  obs::SloMonitor::TenantState* h = slo.Handle("acme");
  ASSERT_EQ(h, slo.Handle("acme"));  // Stable cached handle.
  for (int i = 1; i <= 100; ++i) {
    h->Record(i * 100 * kMicrosecond, /*ok=*/i % 10 != 0);
  }
  const obs::TenantHealth health = slo.Health("acme");
  EXPECT_EQ(health.total_ops, 100u);
  EXPECT_EQ(health.window_samples, 64u);  // Ring capacity bounds the window.
  EXPECT_EQ(health.total_errors, 10u);
  EXPECT_GE(health.p99_ns, health.p50_ns);
  EXPECT_LT(health.availability, 1.0);
  EXPECT_FALSE(health.p99_violated);  // p99 = 10ms target, max sample 10ms.
  // HealthAll / reports cover every registered tenant.
  slo.Handle("beta")->Record(1 * kMillisecond, true);
  EXPECT_EQ(slo.HealthAll().size(), 2u);
  EXPECT_NE(slo.ReportText().find("acme"), std::string::npos);
  EXPECT_NE(slo.ReportJson().find("\"tenant\":\"beta\""), std::string::npos);
}

TEST(ObsSlo, ErrorBudgetExhaustionFiresRateLimitedAlerts) {
  ObsStateGuard obs_guard;
  obs::SetEnabled(true);
  SloFlagGuard slo_guard;
  obs::SloMonitor::Options opts;
  opts.target.availability = 0.99;  // Budget: 1% of the window.
  opts.window_capacity = 128;
  opts.alert_cooldown = 3600 * kSecond;  // One alert, then silence.
  obs::SloMonitor slo(opts);
  std::vector<std::string> alerted;
  slo.SetAlertCallback([&](const obs::TenantHealth& health) {
    alerted.push_back(health.tenant);
    EXPECT_TRUE(health.budget_exhausted || health.p99_violated);
  });
  for (int i = 0; i < 50; ++i) {
    slo.Record("acme", 1 * kMillisecond, /*ok=*/false);
  }
  const obs::TenantHealth health = slo.Health("acme");
  EXPECT_TRUE(health.budget_exhausted);
  EXPECT_EQ(health.error_budget_remaining, 0.0);
  EXPECT_EQ(slo.alerts_fired(), 1u);  // Cooldown collapsed 50 violations.
  ASSERT_EQ(alerted.size(), 1u);
  EXPECT_EQ(alerted[0], "acme");
  // A healthy tenant never alerts.
  for (int i = 0; i < 50; ++i) {
    slo.Record("beta", 1 * kMillisecond, /*ok=*/true);
  }
  EXPECT_EQ(slo.alerts_fired(), 1u);
  EXPECT_FALSE(slo.Health("beta").budget_exhausted);
}

// The first crossing alerts at once, however long the monotonic clock has
// been running, and Reset() / SetOptions() re-arm it. An unbounded cooldown
// makes any "last alert at clock reading 0" sentinel suppress every alert.
TEST(ObsSlo, FirstCrossingAlertsAtOnceAndResetRearms) {
  ObsStateGuard obs_guard;
  obs::SetEnabled(true);
  SloFlagGuard slo_guard;
  obs::SloMonitor::Options opts;
  opts.target.availability = 0.99;
  opts.window_capacity = 128;
  opts.alert_cooldown = std::numeric_limits<DurationNs>::max();
  obs::SloMonitor slo(opts);
  int callbacks = 0;
  slo.SetAlertCallback([&](const obs::TenantHealth&) { ++callbacks; });
  obs::SloMonitor::TenantState* h = slo.Handle("acme");
  for (int i = 0; i < 10; ++i) {
    h->Record(1 * kMillisecond, /*ok=*/false);
  }
  EXPECT_EQ(slo.alerts_fired(), 1u);
  EXPECT_EQ(callbacks, 1);

  slo.Reset();
  EXPECT_EQ(slo.alerts_fired(), 0u);
  for (int i = 0; i < 10; ++i) {
    h->Record(1 * kMillisecond, /*ok=*/false);
  }
  EXPECT_EQ(slo.alerts_fired(), 1u);
  EXPECT_EQ(callbacks, 2);

  slo.SetOptions(opts);
  for (int i = 0; i < 10; ++i) {
    h->Record(1 * kMillisecond, /*ok=*/false);
  }
  EXPECT_EQ(slo.alerts_fired(), 2u);
  EXPECT_EQ(callbacks, 3);
}

// Alert verdicts of a window, by brute force: sort the last `capacity`
// samples and apply the sorted-window p99 index and error-budget formulas.
struct WindowVerdict {
  bool p99_violated = false;
  bool budget_exhausted = false;
  uint64_t window_errors = 0;
};

WindowVerdict SortedWindowVerdict(
    const std::vector<std::pair<int64_t, bool>>& samples, size_t capacity,
    const obs::SloTarget& target) {
  const size_t n = std::min(samples.size(), capacity);
  WindowVerdict v;
  std::vector<int64_t> lat;
  for (size_t i = samples.size() - n; i < samples.size(); ++i) {
    lat.push_back(samples[i].first);
    v.window_errors += samples[i].second ? 0 : 1;
  }
  std::sort(lat.begin(), lat.end());
  const size_t idx =
      static_cast<size_t>(0.99 * static_cast<double>(n - 1) + 0.5);
  v.p99_violated = lat[idx] > target.p99_latency_ns;
  const double budget = (1.0 - target.availability) * static_cast<double>(n);
  const double remaining =
      budget <= 0.0
          ? (v.window_errors == 0 ? 1.0 : 0.0)
          : std::max(0.0, 1.0 - static_cast<double>(v.window_errors) / budget);
  v.budget_exhausted = remaining <= 0.0 && v.window_errors > 0;
  return v;
}

// Every record checks the thresholds from the running window counts. With
// no cooldown, every record whose window is over a threshold alerts, and
// the alert carries the sorted window's verdicts, through several ring
// wraps and at latencies on either side of the target.
TEST(ObsSlo, WindowCountVerdictsMatchSortedWindow) {
  ObsStateGuard obs_guard;
  obs::SetEnabled(true);
  SloFlagGuard slo_guard;
  constexpr int64_t kTarget = 10 * kMillisecond;
  const int64_t common[] = {1, kTarget - 1, kTarget};
  const int64_t slow[] = {kTarget + 1, 10 * kSecond};
  Rng rng(25);
  for (const double availability : {0.98, 1.0}) {
    for (const size_t capacity : {1, 2, 7, 64, 130}) {
      SCOPED_TRACE("availability " + std::to_string(availability) +
                   ", capacity " + std::to_string(capacity));
      obs::SloMonitor::Options opts;
      opts.target.p99_latency_ns = kTarget;
      opts.target.availability = availability;
      opts.window_capacity = capacity;
      opts.alert_cooldown = 0;
      obs::SloMonitor slo(opts);
      std::vector<obs::TenantHealth> alerts;
      slo.SetAlertCallback(
          [&](const obs::TenantHealth& health) { alerts.push_back(health); });
      obs::SloMonitor::TenantState* h = slo.Handle("acme");
      std::vector<std::pair<int64_t, bool>> samples;
      size_t want_alerts = 0;
      for (size_t i = 0; i < 3 * capacity + 5; ++i) {
        const int64_t latency = rng.NextBelow(32) == 0
                                    ? slow[rng.NextBelow(2)]
                                    : common[rng.NextBelow(3)];
        const bool ok = rng.NextBelow(50) != 0;  // About 2 % errors.
        samples.emplace_back(latency, ok);
        h->Record(latency, ok);
        const WindowVerdict want =
            SortedWindowVerdict(samples, capacity, opts.target);
        if (want.p99_violated || want.budget_exhausted) {
          ++want_alerts;
        }
        ASSERT_EQ(alerts.size(), want_alerts) << "record " << i;
        if (want.p99_violated || want.budget_exhausted) {
          EXPECT_EQ(alerts.back().p99_violated, want.p99_violated)
              << "record " << i;
          EXPECT_EQ(alerts.back().budget_exhausted, want.budget_exhausted)
              << "record " << i;
          EXPECT_EQ(alerts.back().window_errors, want.window_errors)
              << "record " << i;
        }
      }
      EXPECT_EQ(slo.alerts_fired(), want_alerts);
    }
  }
}

// Reset() and SetOptions() zero the window counts with the window. Reset()
// leaves the old samples in the ring, so a later window shorter than the
// ring must neither alert on them nor count their errors.
TEST(ObsSlo, ResetAndSetOptionsZeroWindowCounts) {
  ObsStateGuard obs_guard;
  obs::SetEnabled(true);
  SloFlagGuard slo_guard;
  obs::SloMonitor::Options opts;
  opts.target.p99_latency_ns = 10 * kMillisecond;
  opts.target.availability = 0.99;
  opts.window_capacity = 64;
  opts.alert_cooldown = 0;
  obs::SloMonitor slo(opts);
  obs::SloMonitor::TenantState* h = slo.Handle("acme");
  const auto fill_violating = [&] {
    for (int i = 0; i < 64; ++i) {
      h->Record(1 * kSecond, /*ok=*/false);
    }
    EXPECT_GT(slo.alerts_fired(), 0u);
  };
  const auto expect_healthy = [&](const char* after) {
    const uint64_t fired = slo.alerts_fired();
    for (int i = 0; i < 16; ++i) {
      h->Record(1 * kMillisecond, /*ok=*/true);
    }
    EXPECT_EQ(slo.alerts_fired(), fired) << after;
    const obs::TenantHealth health = slo.Health("acme");
    EXPECT_EQ(health.window_samples, 16u) << after;
    EXPECT_EQ(health.window_errors, 0u) << after;
    EXPECT_FALSE(health.p99_violated) << after;
    EXPECT_FALSE(health.budget_exhausted) << after;
  };
  fill_violating();
  slo.Reset();
  expect_healthy("Reset()");
  fill_violating();
  slo.SetOptions(opts);
  expect_healthy("SetOptions()");
}

TEST(ObsSlo, SetOptionsDropsSamplesButKeepsHandles) {
  ObsStateGuard obs_guard;
  obs::SetEnabled(true);
  SloFlagGuard slo_guard;
  obs::SloMonitor slo;
  obs::SloMonitor::TenantState* h = slo.Handle("acme");
  for (int i = 0; i < 32; ++i) {
    h->Record(1 * kMillisecond, false);
  }
  EXPECT_EQ(slo.Health("acme").total_ops, 32u);
  obs::SloMonitor::Options opts;
  opts.window_capacity = 16;
  opts.target.p99_latency_ns = 1 * kSecond;
  slo.SetOptions(opts);
  EXPECT_EQ(slo.options().window_capacity, 16u);
  // All samples dropped; the cached handle records into the new window.
  EXPECT_EQ(slo.Health("acme").total_ops, 0u);
  for (int i = 0; i < 32; ++i) {
    h->Record(1 * kMillisecond, true);
  }
  const obs::TenantHealth health = slo.Health("acme");
  EXPECT_EQ(health.total_ops, 32u);
  EXPECT_EQ(health.window_samples, 16u);
}

TEST(ObsSlo, DisabledRecordsNothing) {
  ObsStateGuard obs_guard;
  obs::SetEnabled(true);
  SloFlagGuard slo_guard;
  obs::SloMonitor slo;
  obs::SetSloEnabled(false);
  slo.Record("acme", 5 * kMillisecond, false);
  EXPECT_EQ(slo.Health("acme").total_ops, 0u);
  // The obs master flag gates recording too.
  obs::SetSloEnabled(true);
  obs::SetEnabled(false);
  slo.Record("acme", 5 * kMillisecond, false);
  EXPECT_EQ(slo.Health("acme").total_ops, 0u);
  obs::SetEnabled(true);
  slo.Record("acme", 5 * kMillisecond, true);
  EXPECT_EQ(slo.Health("acme").total_ops, 1u);
}

// --- Tracing ----------------------------------------------------------------

TEST(ObsTrace, SpanNestingIsContained) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::Tracer* tracer = obs::Tracer::Global();
  tracer->Clear();
  tracer->SetEnabled(true);
  {
    JIFFY_TRACE_SPAN("outer", "test");
    {
      JIFFY_TRACE_SPAN("inner", "test");
      RealClock::Instance()->SleepFor(1 * kMillisecond);
    }
    RealClock::Instance()->SleepFor(1 * kMillisecond);
  }
  const auto events = tracer->Collect();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    if (std::string_view(e.name) == "outer") {
      outer = &e;
    } else if (std::string_view(e.name) == "inner") {
      inner = &e;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The inner span starts after and ends before the outer one.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->duration_ns,
            outer->start_ns + outer->duration_ns);
  EXPECT_EQ(inner->tid, outer->tid);  // Same thread.
}

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::Tracer* tracer = obs::Tracer::Global();
  tracer->Clear();
  tracer->SetEnabled(false);
  { JIFFY_TRACE_SPAN("ghost", "test"); }
  EXPECT_EQ(tracer->EventCount(), 0u);
  // The master flag also gates tracing even when the tracer itself is on.
  tracer->SetEnabled(true);
  obs::SetEnabled(false);
  { JIFFY_TRACE_SPAN("ghost2", "test"); }
  EXPECT_EQ(tracer->EventCount(), 0u);
}

TEST(ObsTrace, ChromeJsonIsStructurallyValid) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::Tracer* tracer = obs::Tracer::Global();
  tracer->Clear();
  tracer->SetEnabled(true);
  { JIFFY_TRACE_SPAN("alpha", "cat1"); }
  { JIFFY_TRACE_SPAN("beta", "cat2"); }
  const std::string json = tracer->ToChromeJson();
  EXPECT_EQ(json.front(), '{');
  // Output ends with "}\n" (trailing newline for file-friendly output).
  const size_t last = json.find_last_not_of(" \t\n");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(json[last], '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cat2\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  // Balanced braces/brackets (cheap structural check without a JSON parser).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    } else if (!in_string) {
      braces += (ch == '{') - (ch == '}');
      brackets += (ch == '[') - (ch == ']');
    }
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ObsTrace, RingOverwritesOldestEvents) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::Tracer* tracer = obs::Tracer::Global();
  tracer->Clear();
  tracer->SetEnabled(true);
  const size_t n = obs::Tracer::kRingCapacity + 100;
  for (size_t i = 0; i < n; ++i) {
    tracer->RecordComplete("evt", "test", static_cast<TimeNs>(i), 1);
  }
  // This thread's ring is full but not over-full.
  EXPECT_LE(tracer->EventCount(), obs::Tracer::kRingCapacity + 1);
  const auto events = tracer->Collect();
  ASSERT_FALSE(events.empty());
  // Oldest surviving event is one of the most recent kRingCapacity.
  EXPECT_GE(events.front().start_ns, static_cast<TimeNs>(n) -
                                         static_cast<TimeNs>(
                                             obs::Tracer::kRingCapacity) -
                                         1);
}

// --- End-to-end cluster wiring ----------------------------------------------

TEST(ObsCluster, WorkloadPopulatesMetricsSnapshot) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  SimClock clock;
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 64;
  opts.config.block_size_bytes = 4096;
  opts.config.lease_duration = 60 * kSecond;
  opts.clock = &clock;
  JiffyCluster cluster(opts);
  JiffyClient client(&cluster);
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/file", {}).ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/queue", {}).ok());

  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE((*kv)->Put("key" + std::to_string(i), "value").ok());
  }
  EXPECT_EQ(*(*kv)->Get("key7"), "value");

  auto file = client.OpenFile("/job/file");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello observability").ok());
  EXPECT_EQ(*(*file)->Read(0, 5), "hello");

  auto queue = client.OpenQueue("/job/queue");
  ASSERT_TRUE(queue.ok());
  ASSERT_TRUE((*queue)->Enqueue("item").ok());
  EXPECT_EQ(*(*queue)->Dequeue(), "item");

  ASSERT_TRUE(client.RenewLease("/job/kv").ok());
  cluster.controller_shard(0)->RunExpiryScan();

  auto snap = cluster.MetricsSnapshot();
  // Allocation: one block per data structure at minimum.
  EXPECT_GE(snap.CounterValue("allocator.allocations_total"), 3u);
  EXPECT_GT(snap.GaugeValue("allocator.free_blocks"), 0);
  // Lease + expiry activity on the (single) controller shard.
  EXPECT_GE(snap.SumCounters("lease_renewals_total"), 1u);
  EXPECT_GE(snap.SumCounters("expiry_scans_total"), 1u);
  EXPECT_GT(snap.SumCounters(".ops_total"), 0u);
  // Transports charged data- and control-plane round trips.
  EXPECT_GT(snap.CounterValue("transport.data.ops_total"), 0u);
  EXPECT_GT(snap.CounterValue("transport.data.bytes_total"), 0u);
  EXPECT_GT(snap.CounterValue("transport.control.ops_total"), 0u);
  EXPECT_GT(snap.histograms.at("transport.data.rtt_ns").count, 0u);
  // Data-plane block ops counted by the hosting servers.
  EXPECT_GT(snap.SumCounters("block_ops_total"), 0u);
  EXPECT_GE(snap.CounterValue("cluster.init_blocks_total"), 3u);

  // The text expositions render the same data.
  EXPECT_NE(snap.ToString().find("allocator.allocations_total"),
            std::string::npos);
  EXPECT_NE(cluster.MetricsPrometheusText().find(
                "jiffy_allocator_allocations_total"),
            std::string::npos);
}

TEST(ObsCluster, ClustersDoNotShareMetrics) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  SimClock clock;
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 1;
  opts.config.blocks_per_server = 8;
  opts.config.block_size_bytes = 4096;
  opts.clock = &clock;
  JiffyCluster a(opts);
  JiffyCluster b(opts);
  JiffyClient client(&a);
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/t", {}).ok());
  ASSERT_TRUE(client.OpenKv("/job/t").ok());
  EXPECT_GT(a.MetricsSnapshot().CounterValue("allocator.allocations_total"),
            0u);
  EXPECT_EQ(b.MetricsSnapshot().CounterValue("allocator.allocations_total"),
            0u);
}

TEST(ObsCluster, TraceCapturesClientAndControlSpans) {
  ObsStateGuard guard;
  obs::SetEnabled(true);
  obs::Tracer* tracer = obs::Tracer::Global();
  tracer->Clear();
  tracer->SetEnabled(true);
  SimClock clock;
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 1;
  opts.config.blocks_per_server = 8;
  opts.config.block_size_bytes = 4096;
  opts.clock = &clock;
  JiffyCluster cluster(opts);
  JiffyClient client(&cluster);
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/t", {}).ok());
  auto kv = client.OpenKv("/job/t");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("k", "v").ok());
  std::set<std::string> names;
  for (const auto& e : tracer->Collect()) {
    names.insert(e.name);
  }
  EXPECT_TRUE(names.count("kv.put"));
  EXPECT_TRUE(names.count("ctl.create_prefix"));
  EXPECT_TRUE(names.count("ctl.init_ds"));
  EXPECT_TRUE(names.count("alloc.allocate_n"));
  EXPECT_TRUE(names.count("data.init_block"));
  EXPECT_TRUE(names.count("net.rtt"));
}

}  // namespace
}  // namespace jiffy
