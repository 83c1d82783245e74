// kv_elastic: a KV that grows past the last-level cache, idles and shrinks.
//
// Three client threads each hold an in-process KvClient on one KV (default
// single controller, background repartitioner, 1 MiB blocks). They run
// cycles, all threads in the same phase:
//
//   1. grow: single-key Puts of 256 B values until ~128 MiB of pairs are
//      live, beyond the host's 105 MiB L3, while blocks split;
//   2. steady: MultiGetPinned(16) reads (every 3rd call) and overwrite Puts;
//   3. shrink: single-key Deletes in slot order down to 1/8 of the keys, so
//      blocks drain and merge.
//
// Set-up preloads the 1/8 of the keys that survive every shrink, so every
// cycle starts from and returns to the same state. Every phase ends at a
// barrier that waits for the repartitioner to go idle
// (the lag is a per-layer metric) and checks that no partition entry is
// left migrating. The cycle count is fixed by --seconds (one per 10 s), so
// every run does the same work and the wall time is what is measured.
//
// Sizing (README.md, "Sizing hazards"): the KV starts with one block per
// thread and each thread owns that block's slot range, so every block has
// a single client thread for life, and pinned reads are kept out of grow
// and shrink. Several threads on one splitting block, or pinned reads
// overlapping a migration, lose keys; kv_elastic_race reproduces that
// layout. 512 B and 1 KiB values abort in CuckooHashMap::Rehash().
//
// Correctness: each key has one writer and reader, so every read must
// return exactly the version the thread last wrote; reads only target keys
// the thread knows are live. After the last cycle every live key is read
// back once more.

#include <algorithm>
#include <barrier>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "src/block/arena.h"
#include "src/client/jiffy_client.h"
#include "src/common/random.h"
#include "src/ds/kv_content.h"

namespace perfbench {
namespace {

using namespace jiffy;

constexpr int kThreads = 3;
constexpr size_t kValueBytes = 256;
constexpr size_t kKeys = 480000;  // ~128 MiB of pairs when all live.
constexpr size_t kBlockBytes = 1 << 20;
constexpr uint32_t kSlots = 1024;  // JiffyConfig::kv_hash_slots default.
constexpr size_t kReadBatch = 16;
constexpr uint64_t kReadEvery = 3;  // Steady: 1 MultiGetPinned per 3 calls.
constexpr size_t kSteadyCallsPerThread = 160000;
constexpr double kSecondsPerCycle = 10;
constexpr int kSetupRepeats = 5;
constexpr uint32_t kPreloadVersion = 1;
constexpr char kJob[] = "kve";
constexpr char kPrefix[] = "/kve/kv";

enum Kind { kRead = 0, kWrite = 1 };
enum Phase { kGrow = 0, kSteady = 1, kShrink = 2 };

struct Deployment {
  std::unique_ptr<JiffyCluster> cluster;
  std::unique_ptr<JiffyClient> admin;
  std::vector<std::unique_ptr<KvClient>> kvs;
  uint32_t baseline_blocks = 0;
};

struct PhaseEnd {
  double at_s = 0;  // Since the start of the run, before WaitIdle.
  double lag_s = 0;
  double max_fill = 0;
  double blocks_per_live_mib = 0;
  uint64_t failures = 0;  // Failures counted so far.
};

struct Shared {
  const Args* args;
  Deployment* d;
  Failures* failures;
  TraceSession* session = nullptr;
  std::vector<std::string> keys;
  std::vector<uint64_t> words;
  // Each thread's key indices, sorted by hash slot (the shrink order). The
  // last 1/8 survive every shrink: set-up preloads them.
  std::vector<std::vector<uint32_t>> mine =
      std::vector<std::vector<uint32_t>>(kThreads);
  int cycles = 1;
  // kv_elastic_race: key i belongs to thread i % 3, the KV starts with one
  // block and pinned reads run in every phase, so several threads use every
  // block while it splits or merges.
  bool interleaved = false;
  std::atomic<bool> finished{false};
  std::atomic<bool> corrupt_pending{false};
  std::vector<ThreadProgress> progress = std::vector<ThreadProgress>(kThreads);
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> refreshes{0};
  // One window: the run is a fixed amount of work, measured whole.
  std::vector<ThreadWindows> win = std::vector<ThreadWindows>(kThreads);
  // Written only by the barrier completion (one thread at a time).
  std::vector<PhaseEnd> phase_ends;
  double start = 0;
};

// Builds the cluster and preloads the keys that survive every shrink, so
// each cycle grows from and shrinks back to the same state.
Status Build(Deployment* d, const Shared& s) {
  JiffyCluster::Options opts;
  opts.config.block_size_bytes = kBlockBytes;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 160;
  opts.config.lease_duration = 60 * kSecond;
  d->cluster = std::make_unique<JiffyCluster>(opts);
  d->baseline_blocks = d->cluster->allocator()->allocated_count();
  d->admin = std::make_unique<JiffyClient>(d->cluster.get());
  JIFFY_RETURN_IF_ERROR(d->admin->RegisterJob(kJob));
  JIFFY_RETURN_IF_ERROR(d->admin->CreateAddrPrefix(kPrefix, {}));
  const uint64_t initial_blocks = s.interleaved ? 1 : kThreads;
  for (int t = 0; t < kThreads; ++t) {
    JIFFY_ASSIGN_OR_RETURN(
        auto kv, d->admin->OpenKv(kPrefix, initial_blocks * kBlockBytes));
    d->kvs.push_back(std::move(kv));
  }
  std::string value;
  for (const std::vector<uint32_t>& mine : s.mine) {
    for (size_t i = mine.size() - mine.size() / 8; i < mine.size(); ++i) {
      FillValue(s.args->seed, s.words[mine[i]], kPreloadVersion, kValueBytes,
                &value);
      JIFFY_RETURN_IF_ERROR(d->kvs[0]->Put(s.keys[mine[i]], value));
    }
  }
  d->cluster->repartitioner()->WaitIdle();
  return Status::Ok();
}

// Waits for the repartitioner, then inspects the KV's blocks.
void ConvergePhase(Shared* s) {
  const double t0 = WallSeconds();
  s->d->cluster->repartitioner()->WaitIdle();
  PhaseEnd end;
  end.at_s = t0 - s->start;
  end.lag_s = WallSeconds() - t0;
  auto map = s->d->cluster->ControllerFor(kJob)->GetPartitionMap(kJob, "kv");
  s->attempted.fetch_add(1);
  if (!map.ok()) {
    s->failures->Record("GetPartitionMap", map.status().ToString());
  } else {
    double live = 0;
    for (const PartitionEntry& e : map->entries) {
      if (e.migrating) {
        s->failures->Record("GetPartitionMap",
                            "entry left migrating after WaitIdle");
      }
      if (Block* b = s->d->cluster->ResolveBlock(e.block)) {
        const double used = static_cast<double>(b->UsedBytes());
        live += used;
        end.max_fill = std::max(end.max_fill, used / b->capacity());
      }
    }
    end.blocks_per_live_mib =
        live > 0 ? map->entries.size() / (live / (1 << 20)) : 0;
  }
  end.failures = s->failures->count();
  s->phase_ends.push_back(end);
}

class Client {
 public:
  Client(Shared* s, int t)
      : s_(s),
        t_(t),
        kv_(s->d->kvs[t].get()),
        rng_(StreamSeed(s->args->seed, t)),
        version_(kKeys, 0),
        pos_(kKeys, -1),
        shadow_(NewShadow()) {
    const std::vector<uint32_t>& mine = s->mine[t];
    for (size_t i = mine.size() - mine.size() / 8; i < mine.size(); ++i) {
      version_[mine[i]] = kPreloadVersion;
      AddLive(mine[i]);
    }
  }

  template <typename Barrier>
  void Run(Barrier* barrier) {
    const std::vector<uint32_t>& mine = s_->mine[t_];
    const size_t keep = mine.size() / 8;
    std::vector<uint32_t> grow(mine.begin(), mine.end() - keep);
    for (int c = 0; c < s_->cycles; ++c) {
      Shuffle(&grow);
      for (uint32_t k : grow) {
        Step(kGrow, k);
      }
      barrier->arrive_and_wait();
      for (size_t i = 0; i < kSteadyCallsPerThread; ++i) {
        Step(kSteady, 0);
      }
      barrier->arrive_and_wait();
      for (size_t i = 0; i + keep < mine.size(); ++i) {
        Step(kShrink, mine[i]);
      }
      barrier->arrive_and_wait();
    }
  }

  // Reads every live key once more (untimed end-of-run check).
  void VerifyAll() {
    for (size_t i = 0; i < live_.size(); i += kReadBatch) {
      std::vector<uint32_t> idx(
          live_.begin() + i,
          live_.begin() + std::min(live_.size(), i + kReadBatch));
      ReadKeys(idx, /*measure=*/false);
    }
  }

 private:
  static std::unique_ptr<KvShard> NewShadow() {
    return std::make_unique<KvShard>(kBlockBytes, 0, kSlots, kSlots);
  }

  void Shuffle(std::vector<uint32_t>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng_.NextBelow(i)]);
    }
  }

  void AddLive(uint32_t k) {
    if (pos_[k] < 0) {
      pos_[k] = static_cast<int32_t>(live_.size());
      live_.push_back(k);
    }
  }
  void RemoveLive(uint32_t k) {
    const int32_t p = pos_[k];
    if (p < 0) {
      return;
    }
    live_[p] = live_.back();
    pos_[live_[p]] = p;
    live_.pop_back();
    pos_[k] = -1;
  }

  // One call of the closed loop. `k` is the key of a grow put / shrink
  // delete; steady calls pick their own keys.
  void Step(Phase phase, uint32_t k) {
    ++call_;
    const bool reads = phase == kSteady || s_->interleaved;
    if (reads && live_.size() >= kReadBatch && call_ % kReadEvery == 0) {
      std::vector<uint32_t> idx;
      while (idx.size() < kReadBatch) {
        const uint32_t cand = live_[rng_.NextBelow(live_.size())];
        if (std::find(idx.begin(), idx.end(), cand) == idx.end()) {
          idx.push_back(cand);
        }
      }
      ReadKeys(idx, /*measure=*/true);
      if (phase == kSteady) {
        return;
      }
    }
    if (phase == kSteady) {
      Write(live_[rng_.NextBelow(live_.size())], /*del=*/false);
    } else {
      Write(k, /*del=*/phase == kShrink);
    }
  }

  void Count(uint64_t ops) {
    s_->win[t_].ops[0] += ops;
    s_->progress[t_].ops.fetch_add(ops, std::memory_order_relaxed);
    s_->progress[t_].calls.fetch_add(1, std::memory_order_relaxed);
    const uint64_t v = kv_->map_version();
    if (v != seen_version_) {
      seen_version_ = v;
      s_->refreshes.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Opens the call span when this call is sampled.
  void MaybeOpen(std::optional<obs::TraceSpan>* span, obs::TraceContext* root) {
    OpenCallSpan(s_->session != nullptr && s_->session->ShouldSample(call_),
                 span, root);
  }

  void ReadKeys(const std::vector<uint32_t>& idx, bool measure) {
    std::vector<std::string_view> keys;
    for (uint32_t k : idx) {
      keys.push_back(s_->keys[k]);
    }
    std::vector<uint32_t> expect;
    for (uint32_t k : idx) {
      expect.push_back(version_[k]);
    }
    if (measure && s_->corrupt_pending.exchange(false)) {
      ++expect[0];
    }
    s_->attempted.fetch_add(idx.size(), std::memory_order_relaxed);
    obs::TraceContext root;
    KvClient::PinnedValues got;
    const TimeNs t0 = RealClock::Instance()->Now();
    {
      std::optional<obs::TraceSpan> span;
      if (measure) {
        MaybeOpen(&span, &root);
      }
      got = kv_->MultiGetPinned(keys);
    }
    const TimeNs t1 = RealClock::Instance()->Now();
    for (size_t i = 0; i < idx.size(); ++i) {
      uint32_t v = 0;
      if (i >= got.values.size() || !got.values[i].ok()) {
        s_->failures->Record(
            measure ? "MultiGetPinned" : "MultiGetPinned(final verify)",
            "live key " + s_->keys[idx[i]] + ": " +
                (i < got.values.size() ? got.values[i].status().ToString()
                                       : "missing"));
      } else if (!ParseValue(s_->args->seed, s_->words[idx[i]], kValueBytes,
                             *got.values[i], &v) ||
                 v != expect[i]) {
        s_->failures->Record("MultiGetPinned",
                             "key " + s_->keys[idx[i]] + ": read version " +
                                 std::to_string(v) + ", expected " +
                                 std::to_string(expect[i]) +
                                 " (or bad bytes)");
      }
    }
    got = {};
    if (!measure) {
      return;
    }
    s_->win[t_].read[0].Add(t1 - t0);
    if (root.active()) {
      ReplayRead(keys, root);
    }
    Count(idx.size());
  }

  void Write(uint32_t k, bool del) {
    s_->attempted.fetch_add(1, std::memory_order_relaxed);
    std::string value;
    const uint32_t v = version_[k] + 1;
    if (!del) {
      FillValue(s_->args->seed, s_->words[k], v, kValueBytes, &value);
    }
    obs::TraceContext root;
    Status st;
    const TimeNs t0 = RealClock::Instance()->Now();
    {
      std::optional<obs::TraceSpan> span;
      MaybeOpen(&span, &root);
      st = del ? kv_->Delete(s_->keys[k]) : kv_->Put(s_->keys[k], value);
    }
    const TimeNs t1 = RealClock::Instance()->Now();
    if (!st.ok()) {
      s_->failures->Record(del ? "Delete" : "Put",
                           "key " + s_->keys[k] + ": " + st.ToString());
    } else if (del) {
      RemoveLive(k);
    } else {
      version_[k] = v;
      AddLive(k);
    }
    s_->win[t_].write[0].Add(t1 - t0);
    if (root.active()) {
      ReplayWrite(k, del, value, root);
    }
    Count(1);
  }

  // Per block group: the live block's OpLock (wait only) and the KvShard
  // read operator under that hold -- reads never write live data.
  void ReplayRead(const std::vector<std::string_view>& keys,
                  const obs::TraceContext& root) {
    const PartitionMap map = kv_->CachedMap();
    std::vector<std::vector<std::string_view>> groups(map.entries.size());
    for (std::string_view key : keys) {
      const uint32_t slot = KvSlotOf(key, kSlots);
      for (size_t e = 0; e < map.entries.size(); ++e) {
        if (slot >= map.entries[e].lo && slot < map.entries[e].hi) {
          groups[e].push_back(key);
          break;
        }
      }
    }
    SampleNote note;
    note.trace_id = root.trace_id;
    note.kind = kRead;
    note.items = keys.size();
    note.expected_spans = 1;
    for (size_t e = 0; e < groups.size(); ++e) {
      Block* block = groups[e].empty()
                         ? nullptr
                         : s_->d->cluster->ResolveBlock(map.entries[e].block);
      if (block == nullptr) {
        continue;
      }
      std::optional<Block::OpLock> lock;
      Replay(kSpanLock, root, [&] { lock.emplace(*block); });
      Replay(kSpanOp, root, [&] {
        if (auto* shard = ContentAs<KvShard>(block->content())) {
          std::vector<Result<std::string_view>> out;
          shard->MultiGet(groups[e], &out);
        }
      });
      note.groups += 1;
      note.expected_spans += 2;
    }
    s_->session->AddNote(t_, note);
  }

  // The live block's OpLock wait, then the mutation on this thread's
  // benchmark-owned shadow shard.
  void ReplayWrite(uint32_t k, bool del, const std::string& value,
                   const obs::TraceContext& root) {
    const std::string& key = s_->keys[k];
    const PartitionMap map = kv_->CachedMap();
    const uint32_t slot = KvSlotOf(key, kSlots);
    Block* block = nullptr;
    for (const PartitionEntry& e : map.entries) {
      if (slot >= e.lo && slot < e.hi) {
        block = s_->d->cluster->ResolveBlock(e.block);
        break;
      }
    }
    if (block == nullptr) {
      return;
    }
    if (shadow_->used_bytes() > kBlockBytes / 2) {
      shadow_ = NewShadow();
    }
    if (del) {
      std::string filler;
      FillValue(s_->args->seed, s_->words[k], 0, kValueBytes, &filler);
      (void)shadow_->Put(key, filler);
    }
    {
      std::optional<Block::OpLock> lock;
      Replay(kSpanLock, root, [&] { lock.emplace(*block); });
    }
    Replay(kSpanOp, root, [&] {
      (void)(del ? shadow_->Delete(key) : shadow_->Put(key, value));
    });
    SampleNote note;
    note.trace_id = root.trace_id;
    note.kind = kWrite;
    note.items = 1;
    note.groups = 1;
    note.expected_spans = 3;
    s_->session->AddNote(t_, note);
  }

  Shared* s_;
  const int t_;
  KvClient* kv_;
  Rng rng_;
  uint64_t call_ = 0;
  uint64_t seen_version_ = 0;
  std::vector<uint32_t> version_;  // Last version written, by key index.
  std::vector<int32_t> pos_;       // Index into live_, -1 when not live.
  std::vector<uint32_t> live_;
  std::unique_ptr<KvShard> shadow_;
};

}  // namespace

int RunKvElastic(const Args& args, Output* out) {
  Failures failures("kv_elastic", args.seed);
  Shared s;
  s.args = &args;
  s.failures = &failures;
  s.cycles = std::max(1, static_cast<int>(args.seconds / kSecondsPerCycle));
  s.corrupt_pending = args.corrupt;
  s.interleaved = args.workload == "kv_elastic_race";
  for (size_t i = 0; i < kKeys; ++i) {
    s.keys.push_back(KeyString(args.seed, i));
    s.words.push_back(KeyWord(args.seed, i));
  }
  for (size_t i = 0; i < kKeys; ++i) {
    const uint32_t slot = KvSlotOf(s.keys[i], kSlots);
    const size_t owner =
        s.interleaved ? i % kThreads : slot * kThreads / kSlots;
    s.mine[owner].push_back(static_cast<uint32_t>(i));
  }
  for (std::vector<uint32_t>& mine : s.mine) {
    std::stable_sort(mine.begin(), mine.end(), [&](uint32_t a, uint32_t b) {
      return KvSlotOf(s.keys[a], kSlots) < KvSlotOf(s.keys[b], kSlots);
    });
  }

  std::vector<double> setups;
  auto d = std::make_unique<Deployment>();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    d = std::make_unique<Deployment>();
    const double t0 = WallSeconds();
    const Status st = Build(d.get(), s);
    setups.push_back(WallSeconds() - t0);
    if (!st.ok()) {
      out->Info("FAIL setup: %s", st.ToString().c_str());
      return out->Finish(false, 1, 1);
    }
  }
  s.d = d.get();
  JiffyCluster* cluster = d->cluster.get();
  Repartitioner* repart = cluster->repartitioner();
  obs::MetricsRegistry* reg = cluster->metrics();
  std::unique_ptr<TraceSession> session;
  if (args.trace) {
    session = std::make_unique<TraceSession>(kThreads);
    s.session = session.get();
  }

  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(std::make_unique<Client>(&s, t));
  }
  auto converge = [&s]() noexcept { ConvergePhase(&s); };
  std::barrier barrier(kThreads, converge);

  reg->GetHistogram("repartition.pause_ns")->Reset();
  reg->GetHistogram("allocator.alloc_ns")->Reset();
  const obs::MetricsSnapshot snap0 = cluster->MetricsSnapshot();
  const uint64_t splits0 = repart->splits();
  const uint64_t merges0 = repart->merges();
  const uint64_t aborts0 = repart->aborts();
  const double cpu0 = ProcessCpuSeconds();
  const double w0 = WallSeconds();
  s.start = w0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { clients[t]->Run(&barrier); });
  }
  std::thread finisher([&] {
    for (std::thread& th : threads) {
      th.join();
    }
    s.finished.store(true);
  });
  if (session != nullptr) {
    session->Run([&] { return SumOps(s.progress); },
                 [&] { return s.finished.load(); });
  }
  finisher.join();
  const double elapsed = WallSeconds() - w0;
  const double cpu = ProcessCpuSeconds() - cpu0;
  const obs::MetricsSnapshot snap1 = cluster->MetricsSnapshot();
  const uint64_t ops = SumOps(s.progress);
  const uint64_t calls = SumCalls(s.progress);
  const double splits = repart->splits() - splits0;
  const double merges = repart->merges() - merges0;
  const double aborts = repart->aborts() - aborts0;
  const double pause_p99_ns =
      reg->GetHistogram("repartition.pause_ns")->Percentile(0.99);
  const double alloc_p50_ns =
      reg->GetHistogram("allocator.alloc_ns")->Percentile(0.50);

  const uint64_t failed_before_verify = failures.count();
  for (auto& c : clients) {
    c->VerifyAll();
  }
  out->Info("final verify of every live key: %llu failures",
            static_cast<unsigned long long>(failures.count() -
                                            failed_before_verify));
  s.attempted.fetch_add(1);
  const Status dereg = d->admin->DeregisterJob(kJob);
  if (!dereg.ok()) {
    failures.Record("DeregisterJob", dereg.ToString());
  }
  repart->WaitIdle();
  const int64_t leaked =
      static_cast<int64_t>(cluster->allocator()->allocated_count()) -
      d->baseline_blocks;
  if (leaked != 0) {
    failures.Record("allocated_count",
                    std::to_string(leaked) + " blocks leaked");
  }

  const uint64_t attempted = s.attempted.load();
  const uint64_t failed = failures.count();
  out->Info("measured %.3f s (%d cycles), %llu ops in %llu calls, "
            "fail_frac=%.6g",
            elapsed, s.cycles, static_cast<unsigned long long>(ops),
            static_cast<unsigned long long>(calls), Ratio(failed, attempted));
  double lag = 0;
  double max_fill = 0;
  double blocks_per_mib = 0;
  for (size_t i = 0; i < s.phase_ends.size(); ++i) {
    const PhaseEnd& e = s.phase_ends[i];
    out->Info("phase end %zu (%s) at %.3f s: lag %.1f ms, max fill %.3f, "
              "%.3f blocks per live MiB, %llu failures so far",
              i, i % 3 == 0 ? "grow" : i % 3 == 1 ? "steady" : "shrink",
              e.at_s, e.lag_s * 1e3, e.max_fill, e.blocks_per_live_mib,
              static_cast<unsigned long long>(e.failures));
    lag += e.lag_s;
    max_fill = std::max(max_fill, e.max_fill);
    blocks_per_mib += e.blocks_per_live_mib;
  }
  out->Info("repartitioner: %.0f splits, %.0f merges, %.0f aborts", splits,
            merges, aborts);
  bool correct = failed == 0;
  if (!args.trace) {
    WindowClock whole;
    whole.windows = 1;
    correct &= EmitEndToEnd(s.win, whole, {cpu0, cpu0 + cpu}, elapsed, setups,
                            out);
    return out->Finish(correct, attempted, failed);
  }

  const auto ledger = session->Fold();
  const KindLedger kNone;
  const KindLedger& rd = ledger.count(kRead) ? ledger.at(kRead) : kNone;
  const KindLedger& wr = ledger.count(kWrite) ? ledger.at(kWrite) : kNone;
  const double sampled = static_cast<double>(rd.calls + wr.calls);
  const double replayed = rd.ReplaySum() + wr.ReplaySum();
  const double call_ns = rd.call_ns + wr.call_ns;
  const double phases = std::max<size_t>(s.phase_ends.size(), 1);
  const double migrations = splits + merges;
  LayerValues v;
  v["client.self_us_per_call"] = Ratio(call_ns - replayed, sampled) / 1e3;
  v["client.groups_per_call"] = Ratio(rd.groups + wr.groups, sampled);
  v["client.retries_per_kcall"] =
      Ratio(1e3 * (snap1.SumCounters("client.retries_total") -
                   snap0.SumCounters("client.retries_total")),
            calls);
  v["client.refreshes_per_kcall"] = Ratio(1e3 * s.refreshes.load(), calls);
  v["block.lock_wait_us"] =
      Ratio(rd.Replay(kSpanLock) + wr.Replay(kSpanLock),
            rd.ReplayCount(kSpanLock) + wr.ReplayCount(kSpanLock)) /
      1e3;
  v["ds.kv_read_us_per_item"] = Ratio(rd.Replay(kSpanOp), rd.items) / 1e3;
  v["ds.kv_write_us_per_item"] = Ratio(wr.Replay(kSpanOp), wr.items) / 1e3;
  v["core.repart_splits"] = splits;
  v["core.repart_merges"] = merges;
  v["core.repart_abort_frac"] = Ratio(aborts, migrations + aborts);
  v["core.repart_pause_p99_us"] = pause_p99_ns / 1e3;
  v["core.repart_catchup_pairs_per_split"] =
      Ratio(snap1.CounterValue("repartition.catchup_pairs_total") -
                snap0.CounterValue("repartition.catchup_pairs_total"),
            migrations);
  v["core.repart_lag_ms"] = lag / phases * 1e3;
  v["core.repart_max_fill"] = max_fill;
  v["core.alloc_blocks_per_live_mib"] = blocks_per_mib / phases;
  v["core.alloc_us"] = alloc_p50_ns / 1e3;
  v["core.leaked_blocks"] = static_cast<double>(leaked);
  v["obs.remainder_us_per_call"] = Ratio(call_ns - replayed, sampled) / 1e3;
  correct &= session->Report(&v, out);
  out->Info("ledger per call (us): read call=%.2f lock=%.2f op=%.2f | write "
            "call=%.2f lock=%.2f op=%.2f",
            Ratio(rd.call_ns, rd.calls) / 1e3,
            Ratio(rd.Replay(kSpanLock), rd.calls) / 1e3,
            Ratio(rd.Replay(kSpanOp), rd.calls) / 1e3,
            Ratio(wr.call_ns, wr.calls) / 1e3,
            Ratio(wr.Replay(kSpanLock), wr.calls) / 1e3,
            Ratio(wr.Replay(kSpanOp), wr.calls) / 1e3);
  EmitLayers("kv_elastic", v, out);
  return out->Finish(correct, attempted, failed);
}

}  // namespace perfbench
