// job_pipeline: serverless jobs back to back on a replicated control plane.
//
// controller_replicas = 3 and 64 KiB blocks, so each job's queue and file
// span several blocks. Three client threads each run jobs back to back:
//
//   1. RegisterJob, CreateHierarchy with 2 maps -> 2 shuffles -> 1 reduce
//      (the DAG MapReduceJob builds, plus its reduce task), GetLeaseDuration;
//   2. OpenQueue and OpenFile on the shuffles;
//   3. 16 rounds of EnqueueBatch(32 x 256 B), AppendVec(8 x 4 KiB) and
//      RenewLease on a map prefix;
//   4. the reduce side attaches fresh handles, drains the queue with
//      DequeueBatch, reads the file back with ReadVec, then DeregisterJob.
//
// Controller ops, the allocator, lease fan-out, quorum commit and the queue
// and file operators carry the load; KV, wire and repartitioner are nearly
// idle. Checks: FIFO exactly-once dequeue (every item in order, once, and
// nothing after the last), byte-exact file read-back, and the allocator's
// allocated_count() back at its baseline once every job deregistered.
//
// The traced run additionally repeats the script single-threaded on the
// 3-replica cluster and on a one-controller calibration cluster, which
// separates the controller op from the quorum commit.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "src/block/arena.h"
#include "src/client/jiffy_client.h"
#include "src/ds/file_content.h"
#include "src/ds/queue_content.h"

namespace perfbench {
namespace {

using namespace jiffy;

constexpr int kThreads = 3;
constexpr uint32_t kReplicas = 3;
constexpr size_t kBlockBytes = 64 << 10;
constexpr int kRounds = 16;
constexpr size_t kItemsPerRound = 32;
constexpr size_t kItemBytes = 256;
constexpr size_t kPiecesPerRound = 8;
constexpr size_t kPieceBytes = 4 << 10;
constexpr size_t kDequeueMax = 64;
constexpr int kSetupRepeats = 5;
constexpr double kWarmupSeconds = 0.3;
constexpr int kCalibrationJobs = 40;

enum Kind {
  kEnqueue = 0,
  kDequeue = 1,
  kAppend = 2,
  kReadBack = 3,
  kRenew = 4,
  kMetaMutation = 5,
  kMetaLookup = 6,
};

std::unique_ptr<JiffyCluster> MakeCluster(uint32_t replicas) {
  JiffyCluster::Options opts;
  opts.config.block_size_bytes = kBlockBytes;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 256;
  opts.config.controller_replicas = replicas;
  opts.config.lease_duration = 60 * kSecond;
  auto cluster = std::make_unique<JiffyCluster>(opts);
  (void)cluster->controller_shard(0);  // Elects the first leader.
  return cluster;
}

// Latency samples and counters one script runner accumulates.
struct Tally {
  ThreadWindows win;
  Samples job;
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t refreshes = 0;
  uint64_t data_calls = 0;
  uint64_t mutations = 0;
};

// Runs the job script against one cluster. Single-threaded per instance.
class JobScript {
 public:
  // `corrupt` (may be null): while set, the next measured dequeue check
  // expects a wrong item index (the --corrupt-check self-test).
  JobScript(JiffyCluster* cluster, const Args* args, Failures* failures,
            int thread, TraceSession* session, const WindowClock* clock,
            std::atomic<bool>* corrupt)
      : cluster_(cluster),
        args_(args),
        failures_(failures),
        thread_(thread),
        session_(session),
        clock_(clock),
        corrupt_(corrupt),
        client_(cluster),
        read_shadow_(std::make_unique<FileChunk>(kBlockBytes, 0)) {
    std::string piece;
    for (size_t i = 0; i < kPiecesPerRound; ++i) {
      FillValue(args->seed, 0, static_cast<uint32_t>(i), kPieceBytes, &piece);
      read_shadow_->Append(piece);
    }
  }

  // One whole job; `measure` selects whether its samples count.
  void Run(uint64_t seq, bool measure, Tally* tally) {
    tally_ = tally;
    measure_ = measure;
    // "<tenant>.<job>": every job belongs to one tenant, "jp".
    const std::string job =
        "jp.t" + std::to_string(thread_) + "_" + std::to_string(seq);
    const std::string root = "/" + job;
    const uint64_t job_word = Mix64(StreamSeed(args_->seed, thread_) + seq);
    const TimeNs start = RealClock::Instance()->Now();

    Meta(kMetaMutation, "RegisterJob",
         [&] { return client_.RegisterJob(job); });
    std::vector<std::pair<std::string, std::vector<std::string>>> dag = {
        {"map0", {}},
        {"map1", {}},
        {"shuffle0", {"map0", "map1"}},
        {"shuffle1", {"map0", "map1"}},
        {"reduce0", {"shuffle0", "shuffle1"}},
    };
    Meta(kMetaMutation, "CreateHierarchy",
         [&] { return client_.CreateHierarchy(job, dag); });
    Meta(kMetaLookup, "GetLeaseDuration", [&] {
      return client_.GetLeaseDuration(root + "/map0").status();
    });
    std::unique_ptr<QueueClient> queue;
    std::unique_ptr<FileClient> file;
    Meta(kMetaMutation, "OpenQueue", [&] {
      auto q = client_.OpenQueue(root + "/shuffle0");
      queue = q.ok() ? std::move(*q) : nullptr;
      return q.status();
    });
    Meta(kMetaMutation, "OpenFile", [&] {
      auto f = client_.OpenFile(root + "/shuffle1");
      file = f.ok() ? std::move(*f) : nullptr;
      return f.status();
    });
    if (queue == nullptr || file == nullptr) {
      Meta(kMetaMutation, "DeregisterJob",
           [&] { return client_.DeregisterJob(job); });
      return;
    }

    std::vector<std::string> items(kItemsPerRound);
    std::vector<std::string_view> item_views(kItemsPerRound);
    std::vector<std::string> pieces(kPiecesPerRound);
    std::vector<std::string_view> piece_views(kPiecesPerRound);
    for (int r = 0; r < kRounds; ++r) {
      for (size_t i = 0; i < kItemsPerRound; ++i) {
        FillValue(args_->seed, job_word,
                  static_cast<uint32_t>(r * kItemsPerRound + i), kItemBytes,
                  &items[i]);
        item_views[i] = items[i];
      }
      for (size_t i = 0; i < kPiecesPerRound; ++i) {
        FillValue(args_->seed, ~job_word,
                  static_cast<uint32_t>(r * kPiecesPerRound + i), kPieceBytes,
                  &pieces[i]);
        piece_views[i] = pieces[i];
      }
      Data(kEnqueue, queue.get(), kItemsPerRound, kItemsPerRound * kItemBytes,
           [&] { return queue->EnqueueBatch(item_views); },
           [&](const obs::TraceContext& root_ctx, SampleNote* note) {
             ReplayEnqueue(queue.get(), item_views, root_ctx, note);
           });
      Data(kAppend, file.get(), kPiecesPerRound,
           kPiecesPerRound * kPieceBytes,
           [&] { return file->AppendVec(piece_views).status(); },
           [&](const obs::TraceContext& root_ctx, SampleNote* note) {
             ReplayAppend(file.get(), piece_views, root_ctx, note);
           });
      Meta(kRenew, "RenewLease",
           [&] { return client_.RenewLease(root + "/map0"); });
    }

    // Reduce side: fresh handles attach to the shuffle data.
    std::unique_ptr<QueueClient> rq;
    std::unique_ptr<FileClient> rf;
    Meta(kMetaLookup, "OpenQueue(attach)", [&] {
      auto q = client_.OpenQueue(root + "/shuffle0");
      rq = q.ok() ? std::move(*q) : nullptr;
      return q.status();
    });
    Meta(kMetaLookup, "OpenFile(attach)", [&] {
      auto f = client_.OpenFile(root + "/shuffle1");
      rf = f.ok() ? std::move(*f) : nullptr;
      return f.status();
    });
    if (rq != nullptr) {
      Drain(rq.get(), job_word);
    }
    if (rf != nullptr) {
      ReadBack(rf.get(), job_word);
    }
    rq.reset();
    rf.reset();
    queue.reset();
    file.reset();
    Meta(kMetaMutation, "DeregisterJob",
         [&] { return client_.DeregisterJob(job); });
    if (measure_) {
      tally_->job.Add(RealClock::Instance()->Now() - start);
    }
  }

 private:
  template <typename Fn>
  void Meta(Kind kind, const char* op, Fn&& fn) {
    ++call_;
    ++tally_->attempted;
    obs::TraceContext root;
    Status st;
    const TimeNs t0 = RealClock::Instance()->Now();
    {
      std::optional<obs::TraceSpan> span;
      MaybeOpen(&span, &root);
      st = fn();
    }
    const TimeNs t1 = RealClock::Instance()->Now();
    if (!st.ok()) {
      failures_->Record(op, st.ToString());
    }
    if (kind != kMetaLookup) {
      ++tally_->mutations;
    }
    if (root.active()) {
      SampleNote note;
      note.trace_id = root.trace_id;
      note.kind = kind;
      note.expected_spans = 1;
      session_->AddNote(thread_, note);
    }
    if (measure_) {
      const int w = clock_->Of(t1);
      if (kind == kRenew) {
        tally_->win.renew[w].Add(t1 - t0);
      }
      ++tally_->win.ops[w];
      ++tally_->ops;
    }
  }

  // One data call: times it, counts `items` operations, notes map
  // refreshes on `handle`, and replays it when sampled.
  template <typename Fn, typename ReplayFn>
  void Data(Kind kind, DsClient* handle, size_t items, size_t bytes, Fn&& fn,
            ReplayFn&& replay) {
    ++call_;
    tally_->attempted += items;
    const uint64_t version = handle->map_version();
    obs::TraceContext root;
    Status st;
    const TimeNs t0 = RealClock::Instance()->Now();
    {
      std::optional<obs::TraceSpan> span;
      MaybeOpen(&span, &root);
      st = fn();
    }
    const TimeNs t1 = RealClock::Instance()->Now();
    if (!st.ok()) {
      failures_->Record(kind == kEnqueue ? "EnqueueBatch" : "AppendVec",
                        st.ToString());
    }
    Finish(kind, handle, version, items, bytes, t1 - t0, root, replay);
  }

  template <typename ReplayFn>
  void Finish(Kind kind, DsClient* handle, uint64_t version_before,
              size_t items, size_t bytes, DurationNs latency,
              const obs::TraceContext& root, ReplayFn&& replay) {
    ++tally_->data_calls;
    if (handle->map_version() != version_before) {
      ++tally_->refreshes;
    }
    if (root.active()) {
      SampleNote note;
      note.trace_id = root.trace_id;
      note.kind = kind;
      note.items = items;
      note.bytes = bytes;
      note.expected_spans = 1;
      replay(root, &note);
      session_->AddNote(thread_, note);
    }
    if (measure_) {
      const int w = clock_->Of(RealClock::Instance()->Now());
      (kind == kEnqueue || kind == kAppend ? tally_->win.write[w]
                                           : tally_->win.read[w])
          .Add(latency);
      tally_->win.ops[w] += items;
      tally_->ops += items;
    }
  }

  void MaybeOpen(std::optional<obs::TraceSpan>* span, obs::TraceContext* root) {
    OpenCallSpan(session_ != nullptr && session_->ShouldSample(call_), span,
                 root);
  }

  void Drain(QueueClient* q, uint64_t job_word) {
    const size_t total = kRounds * kItemsPerRound;
    size_t next = 0;
    for (int calls = 0; calls < 4 * static_cast<int>(total); ++calls) {
      ++call_;
      const uint64_t version = q->map_version();
      obs::TraceContext root;
      Result<std::vector<std::string>> got = std::vector<std::string>{};
      const TimeNs t0 = RealClock::Instance()->Now();
      {
        std::optional<obs::TraceSpan> span;
        MaybeOpen(&span, &root);
        got = q->DequeueBatch(kDequeueMax);
      }
      const TimeNs t1 = RealClock::Instance()->Now();
      if (!got.ok()) {
        tally_->attempted += 1;
        failures_->Record("DequeueBatch", got.status().ToString());
        return;
      }
      const size_t n = got->size();
      tally_->attempted += std::max<size_t>(n, 1);
      for (const std::string& item : *got) {
        uint32_t index = 0;
        const size_t expect =
            next + (measure_ && corrupt_ != nullptr && corrupt_->exchange(false)
                        ? 1
                        : 0);
        if (!ParseValue(args_->seed, job_word, kItemBytes, item, &index) ||
            index != expect) {
          failures_->Record("DequeueBatch",
                            "item out of FIFO order or corrupt: expected #" +
                                std::to_string(expect) + ", got #" +
                                std::to_string(index));
        }
        ++next;
      }
      Finish(kDequeue, q, version, n, n * kItemBytes, t1 - t0, root,
             [&](const obs::TraceContext& root_ctx, SampleNote* note) {
               ReplayDequeue(q, n, root_ctx, note);
             });
      if (n == 0) {
        break;
      }
    }
    if (next != total) {
      failures_->Record("DequeueBatch", "drained " + std::to_string(next) +
                                            " items, enqueued " +
                                            std::to_string(total));
    }
  }

  void ReadBack(FileClient* f, uint64_t job_word) {
    std::string expect;
    for (int r = 0; r < kRounds; ++r) {
      std::vector<std::pair<uint64_t, size_t>> ranges;
      for (size_t i = 0; i < kPiecesPerRound; ++i) {
        ranges.emplace_back((r * kPiecesPerRound + i) * kPieceBytes,
                            kPieceBytes);
      }
      ++call_;
      tally_->attempted += kPiecesPerRound;
      const uint64_t version = f->map_version();
      obs::TraceContext root;
      std::vector<Result<std::string>> got;
      const TimeNs t0 = RealClock::Instance()->Now();
      {
        std::optional<obs::TraceSpan> span;
        MaybeOpen(&span, &root);
        got = f->ReadVec(ranges);
      }
      const TimeNs t1 = RealClock::Instance()->Now();
      for (size_t i = 0; i < kPiecesPerRound; ++i) {
        const uint32_t piece = static_cast<uint32_t>(r * kPiecesPerRound + i);
        FillValue(args_->seed, ~job_word, piece, kPieceBytes, &expect);
        if (i >= got.size() || !got[i].ok() || *got[i] != expect) {
          failures_->Record("ReadVec", "file piece #" + std::to_string(piece) +
                                           " not read back byte-exact");
        }
      }
      Finish(kReadBack, f, version, kPiecesPerRound,
             kPiecesPerRound * kPieceBytes, t1 - t0, root,
             [&](const obs::TraceContext& root_ctx, SampleNote* note) {
               ReplayRead(f, ranges, root_ctx, note);
             });
    }
  }

  // --- Replays: the live block's OpLock wait, then the content operator on
  // benchmark-owned shadow content (live data is never written twice). ----

  Block* EntryBlock(const PartitionMap& map, size_t i) {
    return i < map.entries.size() ? cluster_->ResolveBlock(map.entries[i].block)
                                  : nullptr;
  }

  void LockReplay(Block* block, const obs::TraceContext& root,
                  SampleNote* note) {
    if (block == nullptr) {
      return;
    }
    std::optional<Block::OpLock> lock;
    Replay(kSpanLock, root, [&] { lock.emplace(*block); });
    note->groups += 1;
    note->expected_spans += 1;
  }

  void ReplayEnqueue(QueueClient* q, const std::vector<std::string_view>& items,
                     const obs::TraceContext& root, SampleNote* note) {
    const PartitionMap map = q->CachedMap();
    LockReplay(EntryBlock(map, map.entries.size() - 1), root, note);
    if (queue_shadow_ == nullptr ||
        queue_shadow_->used_bytes() + kItemsPerRound * kItemBytes * 2 >
            kBlockBytes) {
      queue_shadow_ = std::make_unique<QueueSegment>(kBlockBytes);
    }
    Replay(kSpanOp, root, [&] { queue_shadow_->EnqueueBatch(items, 0); });
    note->expected_spans += 1;
  }

  void ReplayDequeue(QueueClient* q, size_t n, const obs::TraceContext& root,
                     SampleNote* note) {
    const PartitionMap map = q->CachedMap();
    LockReplay(EntryBlock(map, map.queue_head), root, note);
    auto segment = std::make_unique<QueueSegment>(kBlockBytes);
    std::string item;
    for (size_t i = 0; i < n; ++i) {
      FillValue(args_->seed, 0, static_cast<uint32_t>(i), kItemBytes, &item);
      segment->Enqueue(item);
    }
    std::vector<std::string_view> out;
    Replay(kSpanOp, root, [&] { segment->DequeueBatch(n, &out); });
    note->expected_spans += 1;
  }

  void ReplayAppend(FileClient* f, const std::vector<std::string_view>& pieces,
                    const obs::TraceContext& root, SampleNote* note) {
    const PartitionMap map = f->CachedMap();
    LockReplay(EntryBlock(map, map.entries.size() - 1), root, note);
    if (file_shadow_ == nullptr ||
        file_shadow_->FreeBytes() < kPiecesPerRound * kPieceBytes) {
      file_shadow_ = std::make_unique<FileChunk>(kBlockBytes, 0);
    }
    Replay(kSpanOp, root, [&] { file_shadow_->AppendVec(pieces); });
    note->expected_spans += 1;
  }

  void ReplayRead(FileClient* f,
                  const std::vector<std::pair<uint64_t, size_t>>& ranges,
                  const obs::TraceContext& root, SampleNote* note) {
    const PartitionMap map = f->CachedMap();
    std::vector<bool> touched(map.entries.size(), false);
    for (const auto& [offset, len] : ranges) {
      for (size_t e = 0; e < map.entries.size(); ++e) {
        if (offset < map.entries[e].hi && offset + len > map.entries[e].lo) {
          touched[e] = true;
        }
      }
    }
    for (size_t e = 0; e < touched.size(); ++e) {
      if (touched[e]) {
        LockReplay(EntryBlock(map, e), root, note);
      }
    }
    std::vector<std::pair<uint64_t, size_t>> local;
    for (size_t i = 0; i < ranges.size(); ++i) {
      local.emplace_back(i * kPieceBytes, kPieceBytes);
    }
    std::vector<Result<std::string_view>> out;
    Replay(kSpanOp, root, [&] { read_shadow_->ReadVec(local, &out); });
    note->expected_spans += 1;
  }

  JiffyCluster* cluster_;
  const Args* args_;
  Failures* failures_;
  const int thread_;
  TraceSession* session_;
  const WindowClock* clock_;
  std::atomic<bool>* corrupt_;
  JiffyClient client_;
  Tally* tally_ = nullptr;
  bool measure_ = false;
  uint64_t call_ = 0;
  std::unique_ptr<QueueSegment> queue_shadow_;
  std::unique_ptr<FileChunk> file_shadow_;
  std::unique_ptr<FileChunk> read_shadow_;
};

// Metadata-path cost of the job script run single-threaded on one cluster.
struct Calibration {
  double mutation_us = 0;
  double lookup_us = 0;
  double bytes_per_mutation = 0;
  double msgs_per_mutation = 0;
  double log_entries_per_mutation = 0;
};

Calibration Calibrate(JiffyCluster* cluster, const Args& args,
                      Failures* failures, uint64_t first_seq) {
  // Script index kThreads: job ids distinct from the measured threads'.
  TraceSession cal(kThreads + 1, /*sample_every=*/1);
  const WindowClock clock;
  JobScript script(cluster, &args, failures, /*thread=*/kThreads, &cal,
                   &clock, /*corrupt=*/nullptr);
  Tally tally;
  obs::Tracer* tracer = obs::Tracer::Global();
  rsm::ControllerGroup* group = cluster->controller_group(0);
  auto log_index = [&]() -> uint64_t {
    if (group == nullptr || group->leader_index() < 0) {
      return 0;
    }
    return group->replica(group->leader_index())->last_index();
  };
  cluster->repartitioner()->WaitIdle();
  const obs::MetricsSnapshot s0 = cluster->MetricsSnapshot();
  const uint64_t log0 = log_index();
  for (int j = 0; j < kCalibrationJobs; ++j) {
    tracer->SetEnabled(true);
    cal.SetSampling(true);
    script.Run(first_seq + j, /*measure=*/false, &tally);
    cal.SetSampling(false);
    tracer->SetEnabled(false);
    cal.CollectNow();
  }
  cluster->repartitioner()->WaitIdle();
  const obs::MetricsSnapshot s1 = cluster->MetricsSnapshot();
  const double mutations = static_cast<double>(tally.mutations);
  const auto ledger = cal.Fold();
  auto mean_us = [&](std::initializer_list<int> kinds) {
    double ns = 0;
    double calls = 0;
    for (int k : kinds) {
      auto it = ledger.find(k);
      if (it != ledger.end()) {
        ns += it->second.call_ns;
        calls += it->second.calls;
      }
    }
    return Ratio(ns, calls) / 1e3;
  };
  Calibration c;
  c.mutation_us = mean_us({kMetaMutation, kRenew});
  c.lookup_us = mean_us({kMetaLookup});
  c.bytes_per_mutation =
      Ratio(s1.CounterValue("transport.control.bytes_total") -
                s0.CounterValue("transport.control.bytes_total"),
            mutations);
  c.msgs_per_mutation =
      Ratio(s1.CounterValue("transport.control.ops_total") -
                s0.CounterValue("transport.control.ops_total"),
            mutations);
  c.log_entries_per_mutation = Ratio(log_index() - log0, mutations);
  return c;
}

}  // namespace

int RunJobPipeline(const Args& args, Output* out) {
  Failures failures("job_pipeline", args.seed);
  // Set-up: cluster build plus one cold job (first allocations, first
  // metric registrations, first quorum commits) on script index
  // kThreads + 1, whose job ids no measured thread uses.
  std::vector<double> setups;
  std::unique_ptr<JiffyCluster> cluster;
  const WindowClock unmeasured;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    cluster.reset();
    const double t0 = WallSeconds();
    cluster = MakeCluster(kReplicas);
    Tally tally;
    JobScript(cluster.get(), &args, &failures, kThreads + 1, nullptr,
              &unmeasured, nullptr)
        .Run(0, /*measure=*/false, &tally);
    setups.push_back(WallSeconds() - t0);
  }
  cluster->repartitioner()->WaitIdle();
  const uint32_t baseline = cluster->allocator()->allocated_count();
  obs::MetricsRegistry* reg = cluster->metrics();

  std::unique_ptr<TraceSession> session;
  if (args.trace) {
    session = std::make_unique<TraceSession>(kThreads);
  }
  WindowClock clock;  // Set before measuring starts, read-only after.
  std::atomic<bool> corrupt{args.corrupt};
  std::vector<std::unique_ptr<JobScript>> scripts;
  std::vector<Tally> tallies(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    scripts.push_back(std::make_unique<JobScript>(
        cluster.get(), &args, &failures, t, session.get(), &clock, &corrupt));
  }
  std::vector<ThreadProgress> progress(kThreads);
  std::atomic<int> phase{0};  // 0 warmup, 1 measure, 2 stop
  std::atomic<uint64_t> jobs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t seq = 0;; ++seq) {
        const int p = phase.load(std::memory_order_acquire);
        if (p == 2) {
          return;
        }
        const uint64_t before = tallies[t].ops;
        scripts[t]->Run(seq, p == 1, &tallies[t]);
        if (p == 1) {
          progress[t].ops.fetch_add(tallies[t].ops - before,
                                    std::memory_order_relaxed);
          progress[t].calls.fetch_add(1, std::memory_order_relaxed);
          jobs.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  SleepSeconds(kWarmupSeconds);
  reg->GetHistogram("allocator.alloc_ns")->Reset();
  const obs::MetricsSnapshot snap0 = cluster->MetricsSnapshot();
  const double w0 = WallSeconds();
  clock = MakeWindowClock(args.seconds);
  phase.store(1, std::memory_order_release);
  std::vector<double> cpu_marks;
  if (session != nullptr) {
    session->Run([&] { return SumOps(progress); },
                 [&] { return WallSeconds() - w0 >= args.seconds; });
  } else {
    cpu_marks = SleepThroughWindows(clock);
  }
  phase.store(2, std::memory_order_release);
  for (std::thread& th : threads) {
    th.join();
  }
  const double elapsed = WallSeconds() - w0;
  const obs::MetricsSnapshot snap1 = cluster->MetricsSnapshot();
  const double alloc_p50_ns =
      reg->GetHistogram("allocator.alloc_ns")->Percentile(0.50);
  const uint64_t ops = SumOps(progress);

  Tally total;
  for (const Tally& t : tallies) {
    total.attempted += t.attempted;
    total.refreshes += t.refreshes;
    total.data_calls += t.data_calls;
  }
  Calibration cal3;
  Calibration cal1;
  if (args.trace) {
    cal3 = Calibrate(cluster.get(), args, &failures, 1u << 20);
    auto one = MakeCluster(1);
    cal1 = Calibrate(one.get(), args, &failures, 1u << 20);
    one->repartitioner()->WaitIdle();
    if (one->allocator()->allocated_count() != baseline) {
      failures.Record("allocated_count", "calibration cluster leaked blocks");
    }
  }
  cluster->repartitioner()->WaitIdle();
  total.attempted += 1;
  const int64_t leaked =
      static_cast<int64_t>(cluster->allocator()->allocated_count()) - baseline;
  if (leaked != 0) {
    failures.Record("allocated_count",
                    std::to_string(leaked) + " blocks leaked after every job "
                                             "deregistered");
  }

  const uint64_t failed = failures.count();
  const uint64_t attempted = total.attempted;
  std::vector<const Samples*> j;
  std::vector<ThreadWindows> win;
  for (const Tally& t : tallies) {
    j.push_back(&t.job);
    win.push_back(t.win);
  }
  const Percentiles job = ComputePercentiles(j);
  out->Info("measured %.3f s, %llu jobs, %llu ops, fail_frac=%.6g", elapsed,
            static_cast<unsigned long long>(jobs.load()),
            static_cast<unsigned long long>(ops), Ratio(failed, attempted));
  out->Info("job_p50_ms=%.4f job_p99_ms=%.4f (n=%zu jobs)", job.p50_ns / 1e6,
            job.p99_ns / 1e6, job.n);
  bool correct = failed == 0;
  if (!args.trace) {
    correct &= EmitEndToEnd(win, clock, cpu_marks, args.seconds / kWindows,
                            setups, out);
    return out->Finish(correct, attempted, failed);
  }

  const auto ledger = session->Fold();
  KindLedger data;
  KindLedger queue_ops;
  KindLedger file_ops;
  for (const auto& [kind, k] : ledger) {
    if (kind > kReadBack) {
      continue;
    }
    data.Add(k);
    (kind <= kDequeue ? queue_ops : file_ops).Add(k);
  }
  LayerValues v;
  const double remainder = data.call_ns - data.ReplaySum();
  v["client.self_us_per_call"] = Ratio(remainder, data.calls) / 1e3;
  v["client.groups_per_call"] = Ratio(data.groups, data.calls);
  v["client.retries_per_kcall"] =
      Ratio(1e3 * (snap1.SumCounters("client.retries_total") -
                   snap0.SumCounters("client.retries_total")),
            total.data_calls);
  v["client.refreshes_per_kcall"] =
      Ratio(1e3 * total.refreshes, total.data_calls);
  v["block.lock_wait_us"] =
      Ratio(data.Replay(kSpanLock), data.ReplayCount(kSpanLock)) / 1e3;
  v["ds.queue_us_per_item"] =
      Ratio(queue_ops.Replay(kSpanOp), queue_ops.items) / 1e3;
  v["ds.file_us_per_kib"] =
      Ratio(file_ops.Replay(kSpanOp), file_ops.bytes / 1024.0) / 1e3;
  v["core.ctl_mutation_us"] = cal1.mutation_us;
  v["core.ctl_lookup_us"] = cal1.lookup_us;
  v["core.alloc_us"] = alloc_p50_ns / 1e3;
  v["core.lease_fanout_per_renew"] =
      Ratio(snap1.SumCounters("lease_renewal_fanout_total") -
                snap0.SumCounters("lease_renewal_fanout_total"),
            snap1.SumCounters("lease_renewals_total") -
                snap0.SumCounters("lease_renewals_total"));
  v["core.leaked_blocks"] = static_cast<double>(leaked);
  v["rsm.commit_us_per_mutation"] = cal3.mutation_us - cal1.mutation_us;
  v["rsm.bytes_per_mutation"] =
      cal3.bytes_per_mutation - cal1.bytes_per_mutation;
  v["rsm.msgs_per_mutation"] = cal3.msgs_per_mutation - cal1.msgs_per_mutation;
  v["rsm.log_entries_per_mutation"] = cal3.log_entries_per_mutation;
  v["obs.remainder_us_per_call"] = Ratio(remainder, data.calls) / 1e3;
  correct &= session->Report(&v, out);
  out->Info("calibration (single thread, %d jobs each): mutation %.2f us at "
            "%u replicas vs %.2f us at 1; lookup %.2f vs %.2f us",
            kCalibrationJobs, cal3.mutation_us, kReplicas, cal1.mutation_us,
            cal3.lookup_us, cal1.lookup_us);
  EmitLayers("job_pipeline", v, out);
  return out->Finish(correct, attempted, failed);
}

}  // namespace perfbench
