// Shared machinery of the end-to-end benchmark (see perfbench/README.md).
//
// Every workload is a closed loop of client threads against an in-process
// Jiffy deployment that keeps the default zero-cost transport, so every
// nanosecond measured is our code. This header holds what the three
// workloads share:
//
//   * deterministic inputs derived from the --seed argument only (keys,
//     self-checking values),
//   * failure accounting (every wrong answer or failed call is counted and
//     the first few are printed with the op and the seed),
//   * latency samples with exact percentiles and the "ten samples beyond"
//     rule,
//   * the traced run: alternating untraced / traced windows, sampled calls
//     recorded as obs::Tracer spans (one span for the public call, one per
//     replay of the layer below), and a ledger that folds the collected
//     spans into per-layer self times,
//   * the result line the runner script parses.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/obs/trace.h"

namespace perfbench {

class Output;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test: the read checker is handed one deliberately wrong expected
  // version, so a run that does not report a failure has a dead checker.
  bool corrupt = false;
};

// --- Deterministic inputs ----------------------------------------------------

// splitmix64 finalizer.
uint64_t Mix64(uint64_t x);

// The 64-bit word key `index` is derived from; the key string is its hex
// rendering, so the word doubles as the key's hash in stored values.
uint64_t KeyWord(uint64_t seed, uint64_t index);
std::string KeyString(uint64_t seed, uint64_t index);

// Self-checking value layout: u64 key word | u32 version | filler, where the
// filler bytes are a function of (seed, key word, version). `len` >= 12.
void FillValue(uint64_t seed, uint64_t key_word, uint32_t version, size_t len,
               std::string* out);
// True when `v` is exactly a value FillValue produced for `key_word` with
// some version and length `len`; that version goes to *version.
bool ParseValue(uint64_t seed, uint64_t key_word, size_t len,
                std::string_view v, uint32_t* version);

// Per-thread generator seeded only from the workload seed and a stream id.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// --- Failure accounting ------------------------------------------------------

class Failures {
 public:
  Failures(const char* workload, uint64_t seed)
      : workload_(workload), seed_(seed) {}
  // Counts one failure; the first kPrinted are printed with op and seed.
  void Record(const char* op, const std::string& detail);
  uint64_t count() const { return count_.load(); }

 private:
  static constexpr uint64_t kPrinted = 20;
  const char* workload_;
  uint64_t seed_;
  std::atomic<uint64_t> count_{0};
  std::mutex print_mu_;
};

// --- Latency samples ---------------------------------------------------------

// One thread's samples of one call kind, in nanoseconds.
class Samples {
 public:
  void Add(int64_t ns) {
    v_.push_back(ns < 0 ? 0u
                        : ns > 0xffffffffLL ? 0xffffffffu
                                            : static_cast<uint32_t>(ns));
  }
  const std::vector<uint32_t>& values() const { return v_; }
  void Reserve(size_t n) { v_.reserve(n); }

 private:
  std::vector<uint32_t> v_;
};

// A percentile is only reported when at least ten samples lie beyond it:
// callers check `n` (p99 needs 1,000).
struct Percentiles {
  size_t n = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};
Percentiles ComputePercentiles(const std::vector<const Samples*>& parts);

// --- Measurement windows -----------------------------------------------------
//
// The measured interval is split into kWindows equal windows; end-to-end
// values are medians over the windows, so a short burst of interference on
// a shared host moves one window rather than the run's figure.

inline constexpr int kWindows = 5;

// One client thread's end-to-end samples, by window of completion time.
struct ThreadWindows {
  Samples read[kWindows];
  Samples write[kWindows];
  Samples renew[kWindows];
  uint64_t ops[kWindows] = {};
};

// Maps a completion time to its window. Set by the main thread before the
// client threads start measuring, read-only afterwards.
struct WindowClock {
  jiffy::TimeNs start = 0;
  jiffy::TimeNs length = 1;
  int windows = kWindows;

  int Of(jiffy::TimeNs t) const {
    const int64_t w = (t - start) / length;
    return w < 0 ? 0 : w >= windows ? windows - 1 : static_cast<int>(w);
  }
};

// --- Process clocks ----------------------------------------------------------

double WallSeconds();        // steady_clock
double ProcessCpuSeconds();  // getrusage user + sys, whole process
double PeakRssMiB();         // getrusage ru_maxrss

void SleepSeconds(double s);

// Padded per-thread progress counters, read by the main thread.
struct alignas(64) ThreadProgress {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> calls{0};
};
uint64_t SumOps(const std::vector<ThreadProgress>& progress);
uint64_t SumCalls(const std::vector<ThreadProgress>& progress);

// num / den, or 0 when den is 0 (a layer the run did not exercise).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Median of a few set-up timings (seconds), and their info line.
double Median(std::vector<double> v);
void PrintSetups(const std::vector<double>& setups, Output* out);

// --- Traced run --------------------------------------------------------------

// Span names the workloads record. Category "bench" marks them apart from
// the spans src/ records itself.
inline constexpr char kBenchCategory[] = "bench";
inline constexpr char kSpanCall[] = "bench.call";
inline constexpr char kSpanRoute[] = "bench.route";
inline constexpr char kSpanEncode[] = "bench.encode";
inline constexpr char kSpanDecode[] = "bench.decode";
inline constexpr char kSpanDispatch[] = "bench.dispatch";
inline constexpr char kSpanLock[] = "bench.lock";
inline constexpr char kSpanOp[] = "bench.op";
inline constexpr int kNumReplays = 6;  // route .. op
int ReplayIndex(const char* name);     // -1 for non-replay names

// What a sampled call was, noted by the client thread next to its spans.
struct SampleNote {
  uint64_t trace_id = 0;
  int kind = 0;          // Workload-defined call kind.
  uint64_t items = 0;    // Keys / queue items / file pieces of the call.
  uint64_t groups = 0;   // Per-block groups (frames on the wire).
  uint64_t bytes = 0;    // Workload-defined byte count (wire bytes, KiB...).
  int expected_spans = 0;  // Root plus replays, for completeness checks.
};

// Sums over the complete sampled calls of one kind.
struct KindLedger {
  uint64_t calls = 0;
  uint64_t items = 0;
  uint64_t groups = 0;
  uint64_t bytes = 0;
  double call_ns = 0;
  double replay_ns[kNumReplays] = {};
  uint64_t replay_count[kNumReplays] = {};

  void Add(const KindLedger& other);
  double ReplaySum() const;
  double Replay(const char* name) const;
  uint64_t ReplayCount(const char* name) const;
};

// Shared between client threads (sampling flag, notes) and the main thread
// (windows, collection).
class TraceSession {
 public:
  explicit TraceSession(int threads, int sample_every = 8);

  // Client side: true when the call with this per-thread index should be
  // sampled (only inside a traced window).
  bool ShouldSample(uint64_t call_index) const {
    return sampling_.load(std::memory_order_relaxed) &&
           call_index % sample_every_ == 0;
  }
  void AddNote(int thread, const SampleNote& note);

  // Main side: alternates untraced and traced windows until `done()`,
  // reading completed operations through `ops_now()`. A traced window ends
  // after 100 ms or once the rings hold an eighth of a ring, and the
  // tracer is collected and cleared after it, so no ring wraps between
  // collections.
  void Run(const std::function<uint64_t()>& ops_now,
           const std::function<bool()>& done);

  // Manual mode for single-threaded calibration: the caller toggles the
  // tracer and sampling around its own calls, then collects.
  void SetSampling(bool on) { sampling_.store(on); }
  void CollectNow() { Collect(0, 0); }

  // Folds every complete sampled call into per-kind sums.
  std::map<int, KindLedger> Fold() const;

  // Sets the obs.* metrics and ds.copied_bytes_per_op (CopyMeter bytes per
  // operation in the untraced windows, so replays do not count), prints the
  // window and ring summary, and returns false when a ring wrapped between
  // collections (the run then fails).
  bool Report(std::map<std::string, double>* values, Output* out) const;

 private:
  struct Group {
    double root_ns = -1;
    double replay_ns[kNumReplays] = {};
    uint64_t replay_count[kNumReplays] = {};
    int spans = 0;
  };
  // Ingests and clears the tracer's rings. Source events are counted only
  // inside [start, end).
  void Collect(jiffy::TimeNs window_start, jiffy::TimeNs window_end);
  // The collected spans of a noted call; null when some are missing (the
  // call ran past a window's grace period).
  const Group* Complete(const SampleNote& note) const;

  const int sample_every_;
  std::atomic<bool> sampling_{false};
  std::vector<std::vector<SampleNote>> notes_;  // Per thread.
  std::vector<std::mutex> note_mu_;
  std::map<uint64_t, Group> groups_;  // Main thread only.
  double untraced_s_ = 0;
  double traced_s_ = 0;
  uint64_t untraced_ops_ = 0;
  uint64_t traced_ops_ = 0;
  uint64_t src_events_ = 0;
  uint64_t windows_ = 0;
  uint64_t wraps_ = 0;
  size_t max_fill_ = 0;
  uint64_t untraced_copies_ = 0;
};

// Opens the `bench.call` span of a sampled call and stores its context in
// *root; does nothing when the call is not sampled.
inline void OpenCallSpan(bool sampled,
                         std::optional<jiffy::obs::TraceSpan>* span,
                         jiffy::obs::TraceContext* root) {
  if (sampled) {
    span->emplace(kSpanCall, kBenchCategory);
    *root = (*span)->context();
  }
}

// Runs `fn` inside a replay span under `root` (a sampled call's context).
template <typename Fn>
void Replay(const char* name, const jiffy::obs::TraceContext& root, Fn&& fn) {
  jiffy::obs::TraceSpan span(name, kBenchCategory, root);
  fn();
}

// --- Output ------------------------------------------------------------------

class Output {
 public:
  void Metric(const std::string& name, double value, const char* unit);
  // Informational line ("# ..."), never parsed as a metric.
  void Info(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  // Prints the final result line and returns the process exit code.
  int Finish(bool correct, uint64_t attempted, uint64_t failed);

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// --- Metric tables -----------------------------------------------------------
//
// Names and units here are the contract with BENCHMARK.json: a run with
// --trace 0 prints every end-to-end metric, a run with --trace 1 every
// per-layer metric, on every workload.

// Prints the end-to-end metrics -- medians over the `clock.windows`
// windows of `threads` -- plus the per-window values and sample counts.
// `cpu_marks` holds the process CPU seconds at each window boundary
// (windows + 1 values) and `window_s` the window length in seconds. Returns
// false when a read or write p99 of some window lacks ten samples beyond
// it. Renewal latency is printed as an info line only.
bool EmitEndToEnd(const std::vector<ThreadWindows>& threads,
                  const WindowClock& clock,
                  const std::vector<double>& cpu_marks, double window_s,
                  const std::vector<double>& setups, Output* out);

// kWindows windows of `seconds` in total, starting now. Publish it to the
// client threads before they start measuring.
WindowClock MakeWindowClock(double seconds);
// Main thread of a time-based workload: sleeps through the windows of
// `clock` and returns the process CPU seconds at each boundary.
std::vector<double> SleepThroughWindows(const WindowClock& clock);

// Per-layer values by metric name; a metric the workload does not exercise
// is printed as 0 and listed on an info line.
using LayerValues = std::map<std::string, double>;
void EmitLayers(const char* workload, const LayerValues& values, Output* out);

// Host and build record printed at the top of every run.
void PrintHostRecord(const Args& args, Output* out);

int RunKvWire(const Args& args, Output* out);
int RunKvElastic(const Args& args, Output* out);
int RunJobPipeline(const Args& args, Output* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
