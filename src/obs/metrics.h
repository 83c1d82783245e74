// In-process metrics substrate (see DESIGN.md §6 "Observability").
//
// Every layer of the reproduction — controller shards, the block allocator,
// memory servers, transports, the lease machinery — registers named metrics
// in a MetricsRegistry owned by the cluster assembly. Three metric kinds:
//
//   Counter   monotonic, sharded across cache lines so concurrent clients
//             (the common case: many closed-loop threads) never contend;
//   Gauge     last-written value (free blocks, queue depths);
//   Histogram the src/common histogram, reused for latency distributions
//             (allocation, lease renewal, transport RTT); sharded by thread
//             like Counter, so a record locks only its thread's shard and
//             a read folds all kShards of them.
//
// Names are dotted and namespaced per component instance, e.g.
// "controller.0.lease_renewals_total", "server.3.block_ops_total",
// "transport.data.rtt_ns". Snapshot() collects every registered metric in
// one pass under the registry mutex — a single consistent view, no
// re-locking per metric; PrometheusText() renders the standard text
// exposition (dots become underscores, histograms become summaries).
//
// Attribution. Counters and histograms take an optional TenantLabels
// dimension {tenant, job, kind}; the labeled variant is a separate metric
// instance whose registry key carries a canonical {tenant="…",job="…",
// kind="…"} suffix that PrometheusText() preserves as a real label block.
// Cardinality is bounded: past kMaxLabelSets distinct label sets, new sets
// collapse into a per-kind {tenant="_overflow",job="_overflow"} bucket so a
// tenant-id explosion cannot OOM the registry (DESIGN.md §6 "Label
// cardinality").
//
// Cost model: recording is gated on a single process-wide runtime flag
// (default on, env JIFFY_OBS=0 disables). Disabled, every record path is a
// relaxed atomic load plus a branch — near-zero, validated by micro_ops.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"

namespace jiffy {
namespace obs {

// Process-wide master switch for all instrumentation (metrics AND tracing).
// Constant-initialized (no static-init guard on the read path); the env
// override JIFFY_OBS=0 is applied before main by an initializer in
// metrics.cc. Read via Enabled() — a single inlined relaxed load, so the
// disabled record path costs one load and one branch.
inline std::atomic<bool> g_enabled{true};

inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on);

// Monotonic counter, sharded by thread so hot-path increments from many
// closed-loop clients never bounce one cache line.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    if (!Enabled()) {
      return;
    }
    shards_[CurrentThreadId() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  // Power of two (masked indexing); histograms shard the same way.
  static constexpr size_t kShards = Histogram::kShards;
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

// Last-value gauge.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (Enabled()) {
      v_.store(v, std::memory_order_relaxed);
    }
  }
  void Add(int64_t d) {
    if (Enabled()) {
      v_.fetch_add(d, std::memory_order_relaxed);
    }
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Null-tolerant record helpers: components hold nullptr metric pointers
// until the cluster assembly binds a registry, so instrumentation sites stay
// one-liners that cost a branch when unbound or disabled.
inline void Inc(Counter* c, uint64_t n = 1) {
  if (c != nullptr) {
    c->Increment(n);
  }
}

inline void Observe(Histogram* h, int64_t v) {
  if (h != nullptr && Enabled()) {
    h->Record(v);
  }
}

// Records real wall-clock ns into `h` on destruction. When observability is
// disabled (or `h` is null) no clock is read at all.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : h_(Enabled() ? h : nullptr),
        start_(h_ != nullptr ? RealClock::Instance()->Now() : 0) {}
  ~ScopedTimer() {
    if (h_ != nullptr) {
      h_->Record(RealClock::Instance()->Now() - start_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  TimeNs start_;
};

// Attribution dimension for labeled metrics. `tenant` is by convention the
// job-id prefix before the first ':' or '.' (see TenantOf); `kind` is the
// data-structure kind ("kv", "queue", "file", ...) — a small closed set.
struct TenantLabels {
  std::string tenant;
  std::string job;
  std::string kind;
};

// Tenant convention used across the repo: job ids are "<tenant>:<job>" (or
// "<tenant>.<job>" where the id doubles as an address-path segment, which
// forbids ':') and the attribution dimension is the prefix; a job id with
// no separator is its own tenant.
inline std::string TenantOf(const std::string& job) {
  const size_t p = job.find_first_of(":.");
  return p == std::string::npos ? job : job.substr(0, p);
}

// Canonical label suffix appended to a metric name to form the registry
// key, e.g. `{tenant="acme",job="acme:q7",kind="kv"}`. '"' and '\\' in
// label values are replaced with '_' so the suffix never breaks the
// exposition format.
std::string LabelSuffix(const TenantLabels& labels);

// Point-in-time copy of every registered metric.
struct HistogramSummary {
  uint64_t count = 0;
  int64_t min = 0;
  int64_t max = 0;
  double mean = 0.0;
  int64_t p50 = 0;
  int64_t p90 = 0;
  int64_t p99 = 0;
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSummary> histograms;

  // 0 when the metric is absent.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;

  // Sum of every counter whose name contains `substr` (e.g. all shards'
  // "lease_renewals_total").
  uint64_t SumCounters(const std::string& substr) const;

  // Human-readable multi-line dump, one metric per line.
  std::string ToString() const;
};

// Named metric registry. Get* registers on first use and returns a stable
// pointer (callers cache it at bind time); names are shared — two callers
// asking for the same name get the same instance.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Labeled variants: the key is name + LabelSuffix(labels). Distinct label
  // sets are interned and bounded at kMaxLabelSets per registry; once the
  // cap is hit, new sets are redirected to the per-kind overflow bucket
  // (tenant/job both "_overflow") — existing sets keep their identity.
  Counter* GetCounter(const std::string& name, const TenantLabels& labels);
  Histogram* GetHistogram(const std::string& name, const TenantLabels& labels);

  static constexpr size_t kMaxLabelSets = 512;

  // Collects every metric in a single pass under the registry mutex — one
  // consistent view (counters are themselves sharded; each Value() is a
  // relaxed sum, exact once writers quiesce).
  MetricsSnapshot Snapshot() const;

  // Prometheus text exposition: "jiffy_" prefix, dots sanitized to
  // underscores, counters/gauges typed, histograms rendered as summaries
  // with p50/p90/p99 quantile samples plus _sum and _count.
  std::string PrometheusText() const;

  // Zeroes every registered metric (registrations survive).
  void Reset();

 private:
  // Returns the canonical (possibly overflow-redirected) label suffix for
  // `labels`, interning it if the cap allows. Caller holds mu_.
  const std::string& InternLabelsLocked(const TenantLabels& labels);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  // Interned label suffixes: raw suffix → canonical suffix (identity until
  // the cardinality cap, overflow suffix after).
  std::map<std::string, std::string> label_sets_;
};

}  // namespace obs
}  // namespace jiffy

#endif  // SRC_OBS_METRICS_H_
