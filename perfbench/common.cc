#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "src/block/arena.h"

namespace perfbench {

// --- Deterministic inputs ----------------------------------------------------

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t KeyWord(uint64_t seed, uint64_t index) {
  return Mix64(Mix64(seed) ^ (index * 0xd6e8feb86659fd93ull));
}

std::string KeyString(uint64_t seed, uint64_t index) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, KeyWord(seed, index));
  return std::string(buf, 16);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed * 0x2545f4914f6cdd1dull + stream + 1);
}

namespace {

uint64_t FillerWord(uint64_t seed, uint64_t key_word, uint32_t version) {
  return Mix64(seed ^ key_word ^ (static_cast<uint64_t>(version) << 32));
}

}  // namespace

void FillValue(uint64_t seed, uint64_t key_word, uint32_t version, size_t len,
               std::string* out) {
  out->resize(len);
  char* p = out->data();
  std::memcpy(p, &key_word, 8);
  std::memcpy(p + 8, &version, 4);
  const uint64_t w = FillerWord(seed, key_word, version);
  for (size_t i = 12; i < len; i += 8) {
    std::memcpy(p + i, &w, std::min<size_t>(8, len - i));
  }
}

bool ParseValue(uint64_t seed, uint64_t key_word, size_t len,
                std::string_view v, uint32_t* version) {
  if (v.size() != len || len < 12) {
    return false;
  }
  uint64_t kw = 0;
  std::memcpy(&kw, v.data(), 8);
  if (kw != key_word) {
    return false;
  }
  std::memcpy(version, v.data() + 8, 4);
  const uint64_t w = FillerWord(seed, key_word, *version);
  for (size_t i = 12; i < len; i += 8) {
    if (std::memcmp(v.data() + i, &w, std::min<size_t>(8, len - i)) != 0) {
      return false;
    }
  }
  return true;
}

// --- Failure accounting ------------------------------------------------------

void Failures::Record(const char* op, const std::string& detail) {
  const uint64_t n = count_.fetch_add(1) + 1;
  if (n > kPrinted) {
    return;
  }
  std::lock_guard<std::mutex> lock(print_mu_);
  std::printf("# FAIL workload=%s seed=%" PRIu64 " op=%s: %s\n", workload_,
              seed_, op, detail.c_str());
  if (n == kPrinted) {
    std::printf("# FAIL (further failures counted, not printed)\n");
  }
}

// --- Latency samples ---------------------------------------------------------

Percentiles ComputePercentiles(const std::vector<const Samples*>& parts) {
  std::vector<uint32_t> all;
  for (const Samples* s : parts) {
    all.insert(all.end(), s->values().begin(), s->values().end());
  }
  Percentiles p;
  p.n = all.size();
  if (all.empty()) {
    return p;
  }
  auto at = [&](double q) {
    const size_t rank = std::min(all.size() - 1,
                                 static_cast<size_t>(q * (all.size() - 1)));
    std::nth_element(all.begin(), all.begin() + rank, all.end());
    return static_cast<double>(all[rank]);
  };
  p.p50_ns = at(0.50);
  p.p99_ns = at(0.99);
  return p;
}

// --- Process clocks ----------------------------------------------------------

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void SleepSeconds(double s) {
  if (s > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  }
}

uint64_t SumOps(const std::vector<ThreadProgress>& progress) {
  uint64_t n = 0;
  for (const ThreadProgress& p : progress) {
    n += p.ops.load(std::memory_order_relaxed);
  }
  return n;
}

uint64_t SumCalls(const std::vector<ThreadProgress>& progress) {
  uint64_t n = 0;
  for (const ThreadProgress& p : progress) {
    n += p.calls.load(std::memory_order_relaxed);
  }
  return n;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Traced run --------------------------------------------------------------

namespace {

const char* const kReplayNames[kNumReplays] = {
    kSpanRoute, kSpanEncode, kSpanDecode, kSpanDispatch, kSpanLock, kSpanOp};

}  // namespace

int ReplayIndex(const char* name) {
  for (int i = 0; i < kNumReplays; ++i) {
    if (name == kReplayNames[i] || std::strcmp(name, kReplayNames[i]) == 0) {
      return i;
    }
  }
  return -1;
}

void KindLedger::Add(const KindLedger& other) {
  calls += other.calls;
  items += other.items;
  groups += other.groups;
  bytes += other.bytes;
  call_ns += other.call_ns;
  for (int i = 0; i < kNumReplays; ++i) {
    replay_ns[i] += other.replay_ns[i];
    replay_count[i] += other.replay_count[i];
  }
}

double KindLedger::ReplaySum() const {
  double s = 0;
  for (double v : replay_ns) {
    s += v;
  }
  return s;
}

double KindLedger::Replay(const char* name) const {
  const int i = ReplayIndex(name);
  return i < 0 ? 0 : replay_ns[i];
}

uint64_t KindLedger::ReplayCount(const char* name) const {
  const int i = ReplayIndex(name);
  return i < 0 ? 0 : replay_count[i];
}

TraceSession::TraceSession(int threads, int sample_every)
    : sample_every_(sample_every), notes_(threads), note_mu_(threads) {
  jiffy::obs::SetTraceSampleEvery(1);
}

void TraceSession::AddNote(int thread, const SampleNote& note) {
  std::lock_guard<std::mutex> lock(note_mu_[thread]);
  notes_[thread].push_back(note);
}

void TraceSession::Run(const std::function<uint64_t()>& ops_now,
                       const std::function<bool()>& done) {
  constexpr double kMaxWindow = 0.1;
  constexpr double kMinWindow = 0.002;
  constexpr double kGrace = 0.003;
  constexpr double kPoll = 0.001;
  // A traced window ends once the rings hold an eighth of a ring of events
  // in total; with what the grace period adds, no single ring can wrap
  // before the collection.
  constexpr size_t kFillLimit = jiffy::obs::Tracer::kRingCapacity / 8;
  jiffy::obs::Tracer* tracer = jiffy::obs::Tracer::Global();
  tracer->Clear();
  // Sleeps for up to `s` (a traced window also ends at the fill limit);
  // false when the workload finished first.
  auto nap = [&](double s, bool traced) {
    const double end = WallSeconds() + s;
    while (!done()) {
      const double left = end - WallSeconds();
      if (left <= 0 || (traced && tracer->EventCount() >= kFillLimit)) {
        return true;
      }
      SleepSeconds(std::min(left, kPoll));
    }
    return false;
  };
  double window = kMaxWindow;  // Untraced length = the last traced length.
  while (!done()) {
    const double u0 = WallSeconds();
    const uint64_t uo0 = ops_now();
    const uint64_t uc0 = jiffy::CopyMeter::Total();
    if (!nap(window, /*traced=*/false)) {
      break;
    }
    untraced_s_ += WallSeconds() - u0;
    untraced_ops_ += ops_now() - uo0;
    untraced_copies_ += jiffy::CopyMeter::Total() - uc0;

    tracer->SetEnabled(true);
    const jiffy::TimeNs w0 = jiffy::RealClock::Instance()->Now();
    const double t0 = WallSeconds();
    const uint64_t to0 = ops_now();
    sampling_.store(true);
    const bool full = nap(kMaxWindow, /*traced=*/true);
    sampling_.store(false);
    const jiffy::TimeNs w1 = jiffy::RealClock::Instance()->Now();
    if (full) {
      const double length = WallSeconds() - t0;
      traced_s_ += length;
      traced_ops_ += ops_now() - to0;
      window = std::max(kMinWindow, length);
    }
    // Sampled calls finish their replays while tracing is still on; a call
    // still running after the grace is dropped as incomplete.
    SleepSeconds(kGrace);
    tracer->SetEnabled(false);
    SleepSeconds(kGrace);
    Collect(full ? w0 : 0, full ? w1 : 0);
    ++windows_;
  }
  sampling_.store(false);
  tracer->SetEnabled(false);
}

void TraceSession::Collect(jiffy::TimeNs window_start,
                           jiffy::TimeNs window_end) {
  jiffy::obs::Tracer* tracer = jiffy::obs::Tracer::Global();
  const std::vector<jiffy::obs::TraceEvent> events = tracer->Collect();
  tracer->Clear();
  std::map<uint32_t, size_t> per_thread;
  for (const jiffy::obs::TraceEvent& ev : events) {
    ++per_thread[ev.tid];
    const bool bench = ev.category != nullptr &&
                       std::strcmp(ev.category, kBenchCategory) == 0;
    if (!bench) {
      if (ev.start_ns >= window_start && ev.start_ns < window_end) {
        ++src_events_;
      }
      continue;
    }
    if (ev.trace_id == 0) {
      continue;
    }
    Group& g = groups_[ev.trace_id];
    ++g.spans;
    if (std::strcmp(ev.name, kSpanCall) == 0) {
      g.root_ns = static_cast<double>(ev.duration_ns);
      continue;
    }
    const int i = ReplayIndex(ev.name);
    if (i >= 0) {
      g.replay_ns[i] += static_cast<double>(ev.duration_ns);
      ++g.replay_count[i];
    }
  }
  size_t fill = 0;
  for (const auto& [tid, n] : per_thread) {
    fill = std::max(fill, n);
    if (n >= jiffy::obs::Tracer::kRingCapacity) {
      ++wraps_;
    }
  }
  max_fill_ = std::max(max_fill_, fill);
}

const TraceSession::Group* TraceSession::Complete(
    const SampleNote& note) const {
  auto it = groups_.find(note.trace_id);
  if (it == groups_.end() || it->second.root_ns < 0 ||
      it->second.spans != note.expected_spans) {
    return nullptr;
  }
  return &it->second;
}

std::map<int, KindLedger> TraceSession::Fold() const {
  std::map<int, KindLedger> out;
  for (const auto& per_thread : notes_) {
    for (const SampleNote& note : per_thread) {
      const Group* found = Complete(note);
      if (found == nullptr) {
        continue;
      }
      const Group& g = *found;
      KindLedger one;
      one.calls = 1;
      one.items = note.items;
      one.groups = note.groups;
      one.bytes = note.bytes;
      one.call_ns = g.root_ns;
      for (int i = 0; i < kNumReplays; ++i) {
        one.replay_ns[i] = g.replay_ns[i];
        one.replay_count[i] = g.replay_count[i];
      }
      out[note.kind].Add(one);
    }
  }
  return out;
}

// --- Output ------------------------------------------------------------------

void Output::Metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, {value, unit}});
}

void Output::Info(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::printf("# ");
  std::vprintf(fmt, ap);
  std::printf("\n");
  va_end(ap);
}

int Output::Finish(bool correct, uint64_t attempted, uint64_t failed) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

// --- Metric tables -----------------------------------------------------------

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in print order (module prefix = src/ directory).
const LayerSpec kLayers[] = {
    {"client.self_us_per_call", "us"},
    {"client.groups_per_call", "count"},
    {"client.retries_per_kcall", "count"},
    {"client.refreshes_per_kcall", "count"},
    {"wire.frames_per_call", "count"},
    {"wire.retries_per_kcall", "count"},
    {"wire.dispatch_us_per_frame", "us"},
    {"net.frame_encode_us", "us"},
    {"net.frame_decode_us", "us"},
    {"net.frame_bytes_per_item", "bytes"},
    {"net.socket_us_per_frame", "us"},
    {"net.forwarded_frac", "ratio"},
    {"net.shared_fallback_frac", "ratio"},
    {"net.loop_cpu_us_per_frame", "us"},
    {"net.loop_imbalance", "ratio"},
    {"net.coalesced_frac", "ratio"},
    {"block.lock_wait_us", "us"},
    {"block.biased_frac", "ratio"},
    {"block.bias_revokes_per_kframe", "count"},
    {"ds.kv_read_us_per_item", "us"},
    {"ds.kv_write_us_per_item", "us"},
    {"ds.queue_us_per_item", "us"},
    {"ds.file_us_per_kib", "us"},
    {"ds.copied_bytes_per_op", "bytes"},
    {"core.repart_splits", "count"},
    {"core.repart_merges", "count"},
    {"core.repart_abort_frac", "ratio"},
    {"core.repart_pause_p99_us", "us"},
    {"core.repart_catchup_pairs_per_split", "count"},
    {"core.repart_lag_ms", "ms"},
    {"core.repart_max_fill", "ratio"},
    {"core.alloc_blocks_per_live_mib", "1/MiB"},
    {"core.ctl_mutation_us", "us"},
    {"core.ctl_lookup_us", "us"},
    {"core.alloc_us", "us"},
    {"core.lease_fanout_per_renew", "count"},
    {"core.leaked_blocks", "count"},
    {"rsm.commit_us_per_mutation", "us"},
    {"rsm.bytes_per_mutation", "bytes"},
    {"rsm.msgs_per_mutation", "count"},
    {"rsm.log_entries_per_mutation", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.spans_per_op", "count"},
    {"obs.remainder_us_per_call", "us"},
};

}  // namespace

WindowClock MakeWindowClock(double seconds) {
  WindowClock clock;
  clock.start = jiffy::RealClock::Instance()->Now();
  clock.length = static_cast<jiffy::TimeNs>(seconds * 1e9 / kWindows);
  clock.windows = kWindows;
  return clock;
}

std::vector<double> SleepThroughWindows(const WindowClock& clock) {
  std::vector<double> cpu_marks = {ProcessCpuSeconds()};
  for (int w = 1; w <= clock.windows; ++w) {
    const jiffy::TimeNs left = clock.start + w * clock.length -
                               jiffy::RealClock::Instance()->Now();
    SleepSeconds(static_cast<double>(left) * 1e-9);
    cpu_marks.push_back(ProcessCpuSeconds());
  }
  return cpu_marks;
}

bool EmitEndToEnd(const std::vector<ThreadWindows>& threads,
                  const WindowClock& clock,
                  const std::vector<double>& cpu_marks, double window_s,
                  const std::vector<double>& setups, Output* out) {
  bool ok = true;
  std::vector<double> ops_s, cpu;
  std::vector<double> p[3][2];  // read/write/renew x p50/p99, in us
  const char* const names[3] = {"read", "write", "renew"};
  size_t min_n[3] = {SIZE_MAX, SIZE_MAX, SIZE_MAX};
  for (int w = 0; w < clock.windows; ++w) {
    uint64_t ops = 0;
    std::vector<const Samples*> parts[3];
    for (const ThreadWindows& t : threads) {
      ops += t.ops[w];
      parts[0].push_back(&t.read[w]);
      parts[1].push_back(&t.write[w]);
      parts[2].push_back(&t.renew[w]);
    }
    ops_s.push_back(ops / window_s);
    cpu.push_back((cpu_marks[w + 1] - cpu_marks[w]) * 1e6 /
                  std::max<uint64_t>(ops, 1));
    for (int k = 0; k < 3; ++k) {
      const Percentiles pc = ComputePercentiles(parts[k]);
      min_n[k] = std::min(min_n[k], pc.n);
      p[k][0].push_back(pc.p50_ns / 1e3);
      p[k][1].push_back(pc.p99_ns / 1e3);
    }
  }
  auto list = [](const std::vector<double>& v) {
    std::string s;
    for (double x : v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.4g", x);
      s += buf;
    }
    return s;
  };
  out->Info("%d windows of %.3f s; medians over windows are reported",
            clock.windows, window_s);
  out->Info("windows ops_per_s:%s", list(ops_s).c_str());
  out->Metric("ops_per_s", Median(ops_s), "ops/s");
  for (int k = 0; k < 3; ++k) {
    if (k == 2 && min_n[k] == 0) {
      continue;  // Only job_pipeline renews leases.
    }
    out->Info("samples %s: at least %zu per window (p99 needs >= 1000)",
              names[k], min_n[k]);
    out->Info("windows %s_p99_us:%s", names[k], list(p[k][1]).c_str());
    if (k == 2) {
      // Renewal latency is printed, not gated (README.md, "End-to-end
      // metrics").
      out->Info("renew_p50_us=%.4f renew_p99_us=%.4f (info)", Median(p[k][0]),
                Median(p[k][1]));
      continue;
    }
    if (min_n[k] < 1000) {
      out->Info("FAIL %s p99 has fewer than 10 samples beyond it", names[k]);
      ok = false;
    }
    out->Metric(std::string(names[k]) + "_p50_us", Median(p[k][0]), "us");
    out->Metric(std::string(names[k]) + "_p99_us", Median(p[k][1]), "us");
  }
  out->Info("windows cpu_us_per_op:%s", list(cpu).c_str());
  out->Metric("cpu_us_per_op", Median(cpu), "us");
  PrintSetups(setups, out);
  out->Metric("setup_s", Median(setups), "s");
  out->Metric("rss_peak_mb", PeakRssMiB(), "MiB");
  return ok;
}

void EmitLayers(const char* workload, const LayerValues& values,
                Output* out) {
  std::string idle;
  for (const LayerSpec& spec : kLayers) {
    auto it = values.find(spec.name);
    if (it == values.end()) {
      idle += idle.empty() ? "" : " ";
      idle += spec.name;
      out->Metric(spec.name, 0.0, spec.unit);
    } else {
      out->Metric(spec.name, it->second, spec.unit);
    }
  }
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const LayerSpec& spec : kLayers) {
      known |= name == spec.name;
    }
    if (!known) {
      out->Info("BUG unknown layer metric %s", name.c_str());
    }
  }
  out->Info("layers not exercised by %s (printed as 0): %s", workload,
            idle.empty() ? "none" : idle.c_str());
}

bool TraceSession::Report(LayerValues* v, Output* out) const {
  const double untraced = untraced_s_ > 0 ? untraced_ops_ / untraced_s_ : 0;
  const double traced = traced_s_ > 0 ? traced_ops_ / traced_s_ : 0;
  (*v)["obs.trace_overhead_frac"] = untraced > 0 ? 1.0 - traced / untraced : 0;
  (*v)["obs.spans_per_op"] =
      traced_ops_ > 0 ? static_cast<double>(src_events_) / traced_ops_ : 0;
  (*v)["ds.copied_bytes_per_op"] = Ratio(untraced_copies_, untraced_ops_);
  uint64_t notes = 0;
  uint64_t incomplete = 0;
  for (const auto& per_thread : notes_) {
    for (const SampleNote& note : per_thread) {
      ++notes;
      incomplete += Complete(note) == nullptr;
    }
  }
  out->Info("traced: %llu sampled calls (%llu incomplete, dropped), %llu "
            "windows (%.2f s traced, %.2f s untraced), ring max fill %zu of "
            "%zu, ring wraps %llu",
            static_cast<unsigned long long>(notes),
            static_cast<unsigned long long>(incomplete),
            static_cast<unsigned long long>(windows_), traced_s_, untraced_s_,
            max_fill_, jiffy::obs::Tracer::kRingCapacity,
            static_cast<unsigned long long>(wraps_));
  if (wraps_ != 0) {
    out->Info("FAIL a tracer ring wrapped between collections");
  }
  return wraps_ == 0;
}

void PrintSetups(const std::vector<double>& setups, Output* out) {
  std::string line;
  for (double s : setups) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.6f", s);
    line += buf;
  }
  out->Info("setup_s samples (median reported):%s", line.c_str());
}

void PrintHostRecord(const Args& args, Output* out) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 2);
      }
      break;
    }
  }
  out->Info("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d",
            args.workload.c_str(), args.seed, args.seconds,
            args.trace ? 1 : 0);
  out->Info("host nproc=%u cpu=\"%s\"", std::thread::hardware_concurrency(),
            cpu.c_str());
  out->Info("build flags=\"%s\" ndebug=1 clocks=steady_clock,getrusage",
            PERFBENCH_BUILD_FLAGS);
}

}  // namespace perfbench
