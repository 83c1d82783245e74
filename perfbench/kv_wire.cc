// kv_wire: batched KV traffic over the real TCP data plane.
//
// An in-process WireGateway (2 event loops, block->loop affinity on, the
// jiffy_server default) serves a KV preloaded with 65,536 keys x 64 B in 16
// blocks: about 6 MB, which fits in cache, and no block nears the split
// threshold, so the repartitioner stays idle. Two client threads each own a
// WireKvClient (one pooled connection each) and run a closed loop of 80 %
// MultiGet / 20 % MultiPut of 64 distinct Zipf(0.99) keys of the thread's
// own 8 blocks. Each batch fans out to ~8 per-block frames, which loads
// route/group, the frame codec, sockets, server decode, cross-loop
// forwarding, block bias and the cuckoo read path.
//
// Correctness: each key has one writer thread (the owner of its block; key
// index parity in kv_wire_shared), which publishes the version it is about
// to write (`intended`) and, once the put returns, the version now stored
// (`committed`). Every value read must carry its key's word, a version in
// [committed before the call, intended after it], and the seed-derived
// filler.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/common.h"
#include "src/block/arena.h"
#include "src/client/jiffy_client.h"
#include "src/common/random.h"
#include "src/ds/kv_content.h"
#include "src/net/frame.h"
#include "src/wire/block_service.h"
#include "src/wire/gateway.h"
#include "src/wire/wire_kv_client.h"

namespace perfbench {
namespace {

using namespace jiffy;

constexpr int kThreads = 2;
constexpr int kLoops = 2;
constexpr size_t kKeys = 65536;
constexpr size_t kValueBytes = 64;
constexpr size_t kBatch = 64;
constexpr uint64_t kBlocks = 16;
constexpr size_t kBlockBytes = 1 << 20;
constexpr double kTheta = 0.99;
constexpr int kSetupRepeats = 5;
constexpr double kWarmupSeconds = 0.5;
constexpr char kJob[] = "kvw";
constexpr char kPrefix[] = "/kvw/kv";

enum Kind { kRead = 0, kWrite = 1 };

struct Inputs {
  std::vector<std::string> keys;
  std::vector<uint64_t> words;
};

// One built deployment. Members are torn down clients-first.
struct Deployment {
  std::unique_ptr<JiffyCluster> cluster;
  std::unique_ptr<JiffyClient> admin;
  std::unique_ptr<KvClient> kv;
  std::unique_ptr<WireGateway> gateway;
  std::vector<std::unique_ptr<WireKvClient>> clients;
  uint32_t baseline_blocks = 0;

  ~Deployment() {
    clients.clear();
    if (gateway != nullptr) {
      gateway->Stop();
    }
  }
};

Status Build(const Inputs& in, uint64_t seed, Deployment* d) {
  JiffyCluster::Options opts;
  opts.config.block_size_bytes = kBlockBytes;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 16;
  opts.config.lease_duration = 60 * kSecond;
  d->cluster = std::make_unique<JiffyCluster>(opts);
  d->baseline_blocks = d->cluster->allocator()->allocated_count();
  d->admin = std::make_unique<JiffyClient>(d->cluster.get());
  JIFFY_RETURN_IF_ERROR(d->admin->RegisterJob(kJob));
  JIFFY_RETURN_IF_ERROR(d->admin->CreateAddrPrefix(kPrefix, {}));
  JIFFY_ASSIGN_OR_RETURN(d->kv,
                         d->admin->OpenKv(kPrefix, kBlocks * kBlockBytes));
  std::vector<std::string> values(kKeys);
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  for (size_t i = 0; i < kKeys; ++i) {
    FillValue(seed, in.words[i], 0, kValueBytes, &values[i]);
    pairs.emplace_back(in.keys[i], values[i]);
    if (pairs.size() == 512 || i + 1 == kKeys) {
      for (const Status& st : d->kv->MultiPut(pairs)) {
        JIFFY_RETURN_IF_ERROR(st);
      }
      pairs.clear();
    }
  }
  WireGateway::Options gopts;
  gopts.threads = kLoops;
  gopts.affinity = true;
  d->gateway = std::make_unique<WireGateway>(d->cluster.get(), gopts);
  JIFFY_RETURN_IF_ERROR(d->gateway->Start());
  for (int t = 0; t < kThreads; ++t) {
    d->clients.push_back(std::make_unique<WireKvClient>(
        d->gateway->MapFor(d->kv->CachedMap())));
    JIFFY_RETURN_IF_ERROR(d->clients.back()->Ping(0));
  }
  return Status::Ok();
}

// Benchmark-owned copies of the 16 blocks, same ids and contents as after
// the preload, for replaying dispatch / lock / operator work without
// touching live data or revoking live biases.
class Shadow {
 public:
  Shadow(const PartitionMap& map, uint32_t total_slots, const Inputs& in,
         uint64_t seed)
      : service_([this](uint64_t packed) { return Find(packed); }) {
    for (const PartitionEntry& e : map.entries) {
      auto block = std::make_unique<Block>(e.block, kBlockBytes);
      block->InstallContent(std::make_unique<KvShard>(
          kBlockBytes, static_cast<uint32_t>(e.lo),
          static_cast<uint32_t>(e.hi), total_slots));
      blocks_[e.block.Packed()] = std::move(block);
    }
    std::string value;
    for (size_t i = 0; i < kKeys; ++i) {
      FillValue(seed, in.words[i], 0, kValueBytes, &value);
      for (auto& [packed, block] : blocks_) {
        auto* shard = ContentAs<KvShard>(block->content());
        if (shard->OwnsKey(in.keys[i])) {
          (void)shard->Put(in.keys[i], value);
          break;
        }
      }
    }
  }

  Block* Find(uint64_t packed) {
    auto it = blocks_.find(packed);
    return it == blocks_.end() ? nullptr : it->second.get();
  }
  WireBlockService* service() { return &service_; }

 private:
  std::unordered_map<uint64_t, std::unique_ptr<Block>> blocks_;
  WireBlockService service_;
};

struct Shared {
  const Args* args;
  const Inputs* in;
  Deployment* d;
  Failures* failures;
  TraceSession* session = nullptr;
  Shadow* shadow = nullptr;
  // kv_wire: thread t reads and writes only the keys of blocks
  // [8t, 8t + 8), so no block is pinned by one connection's reads while the
  // other's writes compact its arena. kv_wire_shared: both threads read
  // every key (writes by key parity) -- that loses keys (README.md,
  // "Sizing hazards").
  bool shared = false;
  std::vector<std::vector<uint32_t>> mine =
      std::vector<std::vector<uint32_t>>(kThreads);
  std::unique_ptr<std::atomic<uint32_t>[]> intended;
  std::unique_ptr<std::atomic<uint32_t>[]> committed;
  std::atomic<int> phase{0};  // 0 warmup, 1 measure, 2 stop
  std::atomic<bool> corrupt_pending{false};
  std::vector<ThreadProgress> progress = std::vector<ThreadProgress>(kThreads);
  std::atomic<uint64_t> attempted{0};
  WindowClock clock;
  std::vector<ThreadWindows> win = std::vector<ThreadWindows>(kThreads);
};

// Replays one sampled call one layer down at a time (see README.md,
// "Traced run"): route/group, then per frame encode, request decode,
// shadow dispatch, shadow lock + operator, response decode.
void ReplayWire(Shared* s, const WireMap& map, bool write,
                const std::vector<std::string_view>& keys,
                const std::vector<std::pair<std::string_view,
                                            std::string_view>>& pairs,
                const obs::TraceContext& root, SampleNote* note) {
  std::vector<std::vector<size_t>> by_range(map.ranges.size());
  Replay(kSpanRoute, root, [&] {
    for (size_t i = 0; i < keys.size(); ++i) {
      const size_t r = map.Route(KvSlotOf(keys[i], map.total_slots));
      if (r < by_range.size()) {
        by_range[r].push_back(i);
      }
    }
  });
  int spans = 2;
  for (size_t r = 0; r < by_range.size(); ++r) {
    if (by_range[r].empty()) {
      continue;
    }
    const uint64_t packed = map.ranges[r].block;
    std::vector<std::string_view> gkeys;
    std::vector<std::pair<std::string_view, std::string_view>> gpairs;
    for (size_t i : by_range[r]) {
      gkeys.push_back(keys[i]);
      if (write) {
        gpairs.push_back(pairs[i]);
      }
    }
    std::string frame;
    Replay(kSpanEncode, root, [&] {
      if (write) {
        EncodeMultiPutRequest(1, packed, gpairs, &frame);
      } else {
        EncodeKeysRequest(WireOp::kMultiGet, 1, packed, gkeys, &frame);
      }
    });
    DecodedRequest req;
    Status decoded;
    Replay(kSpanDecode, root, [&] {
      decoded = DecodeRequest(std::string_view(frame).substr(kLenPrefixBytes),
                              &req);
    });
    WireResponse resp;
    Replay(kSpanDispatch, root,
           [&] { resp = s->shadow->service()->Handle(req); });
    Block* block = s->shadow->Find(packed);
    {
      std::optional<Block::OpLock> lock;
      Replay(kSpanLock, root, [&] { lock.emplace(*block); });
      Replay(kSpanOp, root, [&] {
        auto* shard = ContentAs<KvShard>(block->content());
        if (write) {
          std::vector<Status> st;
          shard->MultiPut(gpairs, &st);
        } else {
          std::vector<Result<std::string_view>> out;
          shard->MultiGet(gkeys, &out);
        }
      });
    }
    std::string wire = resp.head;
    for (std::string_view p : resp.payloads) {
      wire.append(p);
    }
    DecodedResponse dr;
    Replay(kSpanDecode, root, [&] {
      (void)DecodeResponse(std::string_view(wire).substr(kLenPrefixBytes),
                           &dr);
    });
    if (!decoded.ok() || dr.codes.size() != gkeys.size()) {
      s->failures->Record("replay", "shadow frame replay did not round-trip");
    }
    note->groups += 1;
    note->bytes += frame.size() + wire.size();
    spans += 6;
  }
  note->expected_spans = spans;
}

void ClientLoop(Shared* s, int t) {
  const uint64_t seed = s->args->seed;
  const Inputs& in = *s->in;
  WireKvClient* client = s->d->clients[t].get();
  const WireMap map = client->map();
  Rng rng(StreamSeed(seed, t));
  const std::vector<uint32_t>& mine = s->mine[t];
  ZipfSampler read_zipf(s->shared ? kKeys : mine.size(), kTheta,
                        StreamSeed(seed, 100 + t));
  ZipfSampler write_zipf(s->shared ? kKeys / kThreads : mine.size(), kTheta,
                         StreamSeed(seed, 200 + t));
  std::vector<uint64_t> stamp(kKeys, 0);
  std::vector<size_t> idx;
  std::vector<std::string_view> keys;
  std::vector<uint32_t> lo(kBatch);
  std::vector<uint32_t> versions(kBatch);
  std::vector<std::string> values(kBatch);
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  ThreadProgress& progress = s->progress[t];
  for (uint64_t call = 1;; ++call) {
    const int phase = s->phase.load(std::memory_order_acquire);
    if (phase == 2) {
      return;
    }
    const bool measure = phase == 1;
    const bool write = rng.NextBelow(5) == 0;
    idx.clear();
    keys.clear();
    while (idx.size() < kBatch) {
      const size_t k =
          s->shared ? (write ? write_zipf.Next() * kThreads + t
                             : read_zipf.Next())
                    : mine[write ? write_zipf.Next() : read_zipf.Next()];
      if (stamp[k] != call) {
        stamp[k] = call;
        idx.push_back(k);
        keys.push_back(in.keys[k]);
      }
    }
    s->attempted.fetch_add(kBatch, std::memory_order_relaxed);
    const bool sampled =
        measure && s->session != nullptr && s->session->ShouldSample(call);
    SampleNote note;
    note.kind = write ? kWrite : kRead;
    note.items = kBatch;
    obs::TraceContext root;
    if (write) {
      pairs.clear();
      for (size_t i = 0; i < kBatch; ++i) {
        versions[i] = s->intended[idx[i]].load(std::memory_order_relaxed) + 1;
        s->intended[idx[i]].store(versions[i], std::memory_order_release);
        FillValue(seed, in.words[idx[i]], versions[i], kValueBytes,
                  &values[i]);
        pairs.emplace_back(keys[i], values[i]);
      }
      std::vector<Status> st;
      const TimeNs t0 = RealClock::Instance()->Now();
      {
        std::optional<obs::TraceSpan> span;
        OpenCallSpan(sampled, &span, &root);
        st = client->MultiPut(pairs);
      }
      const TimeNs t1 = RealClock::Instance()->Now();
      for (size_t i = 0; i < kBatch; ++i) {
        if (i < st.size() && st[i].ok()) {
          s->committed[idx[i]].store(versions[i], std::memory_order_release);
        } else {
          s->failures->Record(
              "MultiPut", "key " + in.keys[idx[i]] + ": " +
                              (i < st.size() ? st[i].ToString() : "missing"));
        }
      }
      if (measure) {
        s->win[t].write[s->clock.Of(t1)].Add(t1 - t0);
      }
    } else {
      for (size_t i = 0; i < kBatch; ++i) {
        lo[i] = s->committed[idx[i]].load(std::memory_order_acquire);
      }
      if (measure && s->corrupt_pending.exchange(false)) {
        lo[0] = s->intended[idx[0]].load(std::memory_order_acquire) + 1;
      }
      WireValues got;
      const TimeNs t0 = RealClock::Instance()->Now();
      {
        std::optional<obs::TraceSpan> span;
        OpenCallSpan(sampled, &span, &root);
        got = client->MultiGet(keys);
      }
      const TimeNs t1 = RealClock::Instance()->Now();
      for (size_t i = 0; i < kBatch; ++i) {
        const uint32_t hi = s->intended[idx[i]].load(std::memory_order_acquire);
        uint32_t v = 0;
        if (i >= got.size() || !got[i].ok()) {
          s->failures->Record(
              "MultiGet", "key " + in.keys[idx[i]] + ": " +
                              (i < got.size() ? got[i].status().ToString()
                                              : "missing"));
        } else if (!ParseValue(seed, in.words[idx[i]], kValueBytes,
                               *got[i], &v) ||
                   v < lo[i] || v > hi) {
          s->failures->Record(
              "MultiGet", "key " + in.keys[idx[i]] + ": read version " +
                              std::to_string(v) + " outside [" +
                              std::to_string(lo[i]) + ", " +
                              std::to_string(hi) + "] or bad bytes");
        }
      }
      if (measure) {
        s->win[t].read[s->clock.Of(t1)].Add(t1 - t0);
      }
    }
    if (root.active()) {
      note.trace_id = root.trace_id;
      ReplayWire(s, map, write, keys, pairs, root, &note);
      s->session->AddNote(t, note);
    }
    if (measure) {
      s->win[t].ops[s->clock.Of(RealClock::Instance()->Now())] += kBatch;
      progress.ops.fetch_add(kBatch, std::memory_order_relaxed);
      progress.calls.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

// Counters of the system under test, read before and after measuring.
struct Counters {
  uint64_t rpcs = 0;
  uint64_t wire_retries = 0;
  uint64_t coalesced = 0;
  uint64_t frames = 0;
  uint64_t forwarded = 0;
  uint64_t fallback = 0;
  std::vector<double> loop_cpu;
  uint64_t biased = 0;
  uint64_t revokes = 0;
  uint64_t client_retries = 0;
  uint64_t copies = 0;
};

Counters ReadCounters(Deployment* d) {
  Counters c;
  for (auto& client : d->clients) {
    c.rpcs += client->rpcs_sent();
    c.wire_retries += client->retries();
    auto conn = client->pool()->Get("127.0.0.1", d->gateway->port(), 0);
    if (conn.ok()) {
      c.coalesced += (*conn)->coalesced_frames();
    }
  }
  TcpServer* server = d->gateway->server();
  c.frames = server->frames_served();
  c.forwarded = server->frames_forwarded();
  c.fallback = server->frames_shared_fallback();
  c.loop_cpu = server->LoopCpuSeconds();
  for (const PartitionEntry& e : d->kv->CachedMap().entries) {
    if (Block* b = d->cluster->ResolveBlock(e.block)) {
      c.biased += b->biased_ops();
      c.revokes += b->bias_revokes();
    }
  }
  const obs::MetricsSnapshot snap = d->cluster->MetricsSnapshot();
  c.client_retries = snap.SumCounters("client.retries_total");
  c.copies = CopyMeter::Total();
  return c;
}

}  // namespace

int RunKvWire(const Args& args, Output* out) {
  Inputs in;
  for (size_t i = 0; i < kKeys; ++i) {
    in.keys.push_back(KeyString(args.seed, i));
    in.words.push_back(KeyWord(args.seed, i));
  }

  // Set up several times and report the median; the last one is measured.
  std::vector<double> setups;
  auto d = std::make_unique<Deployment>();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    d = std::make_unique<Deployment>();
    const double t0 = WallSeconds();
    const Status st = Build(in, args.seed, d.get());
    setups.push_back(WallSeconds() - t0);
    if (!st.ok()) {
      out->Info("FAIL setup: %s", st.ToString().c_str());
      return out->Finish(false, 1, 1);
    }
  }

  Failures failures("kv_wire", args.seed);
  Shared s;
  s.args = &args;
  s.in = &in;
  s.d = d.get();
  s.failures = &failures;
  s.intended = std::make_unique<std::atomic<uint32_t>[]>(kKeys);
  s.committed = std::make_unique<std::atomic<uint32_t>[]>(kKeys);
  s.corrupt_pending = args.corrupt;
  s.shared = args.workload == "kv_wire_shared";
  // Zipf rank r of a thread maps to its block r mod 8, so hot keys spread
  // evenly over the thread's blocks whatever the seed: the frames per call
  // and the load per event loop then do not depend on the seed.
  const uint32_t slots = d->cluster->config().kv_hash_slots;
  std::vector<std::vector<uint32_t>> by_block(kBlocks);
  for (size_t i = 0; i < kKeys; ++i) {
    by_block[KvSlotOf(in.keys[i], slots) * kBlocks / slots].push_back(
        static_cast<uint32_t>(i));
  }
  const size_t per_thread = kBlocks / kThreads;
  for (int t = 0; t < kThreads; ++t) {
    for (size_t depth = 0, added = 1; added != 0; ++depth) {
      added = 0;
      for (size_t b = t * per_thread; b < (t + 1) * per_thread; ++b) {
        if (depth < by_block[b].size()) {
          s.mine[t].push_back(by_block[b][depth]);
          ++added;
        }
      }
    }
  }
  std::unique_ptr<TraceSession> session;
  std::unique_ptr<Shadow> shadow;
  if (args.trace) {
    session = std::make_unique<TraceSession>(kThreads);
    shadow = std::make_unique<Shadow>(d->kv->CachedMap(),
                                      d->cluster->config().kv_hash_slots, in,
                                      args.seed);
    s.session = session.get();
    s.shadow = shadow.get();
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(ClientLoop, &s, t);
  }
  SleepSeconds(kWarmupSeconds);
  const Counters c0 = ReadCounters(d.get());
  const double w0 = WallSeconds();
  s.clock = MakeWindowClock(args.seconds);
  s.phase.store(1, std::memory_order_release);
  std::vector<double> cpu_marks;
  if (session != nullptr) {
    session->Run([&] { return SumOps(s.progress); },
                 [&] { return WallSeconds() - w0 >= args.seconds; });
  } else {
    cpu_marks = SleepThroughWindows(s.clock);
  }
  s.phase.store(2, std::memory_order_release);
  for (std::thread& th : threads) {
    th.join();
  }
  const double elapsed = WallSeconds() - w0;
  const Counters c1 = ReadCounters(d.get());
  const uint64_t ops = SumOps(s.progress);
  const uint64_t calls = SumCalls(s.progress);

  double max_garbage = 0;
  for (const PartitionEntry& e : d->kv->CachedMap().entries) {
    Block* b = d->cluster->ResolveBlock(e.block);
    Block::OpLock lock(*b);
    if (auto* shard = ContentAs<KvShard>(b->content())) {
      const double stored = shard->arena()->stored_bytes();
      max_garbage = std::max(
          max_garbage,
          stored > 0 ? shard->arena()->garbage_bytes() / stored : 0);
    }
  }
  out->Info("max arena garbage ratio %.4f (a shard compacts above 0.5)",
            max_garbage);
  const Repartitioner* repart = d->cluster->repartitioner();
  out->Info("repartitioner: %llu splits, %llu merges (expected idle)",
            static_cast<unsigned long long>(repart->splits()),
            static_cast<unsigned long long>(repart->merges()));
  // End-of-run checks: no stuck migration, no leaked blocks.
  auto map = d->cluster->ControllerFor(kJob)->GetPartitionMap(kJob, "kv");
  if (!map.ok()) {
    failures.Record("GetPartitionMap", map.status().ToString());
  } else {
    for (const PartitionEntry& e : map->entries) {
      if (e.migrating) {
        failures.Record("GetPartitionMap", "entry left migrating");
      }
    }
  }
  const uint32_t baseline = d->baseline_blocks;
  const Status dereg = d->admin->DeregisterJob(kJob);
  if (!dereg.ok()) {
    failures.Record("DeregisterJob", dereg.ToString());
  }
  const int64_t leaked =
      static_cast<int64_t>(d->cluster->allocator()->allocated_count()) -
      baseline;
  if (leaked != 0) {
    failures.Record("allocated_count",
                    std::to_string(leaked) + " blocks leaked");
  }

  // The two end-of-run checks count as attempted operations too.
  const uint64_t attempted = s.attempted.load() + 2;
  const uint64_t failed = failures.count();
  out->Info("measured %.3f s, %llu ops in %llu calls, fail_frac=%.6g", elapsed,
            static_cast<unsigned long long>(ops),
            static_cast<unsigned long long>(calls),
            Ratio(failed, attempted));
  bool correct = failed == 0;
  if (!args.trace) {
    correct &= EmitEndToEnd(s.win, s.clock, cpu_marks, args.seconds / kWindows,
                            setups, out);
    return out->Finish(correct, attempted, failed);
  }

  const auto ledger = session->Fold();
  KindLedger all;
  const KindLedger kNone;
  const KindLedger& rd = ledger.count(kRead) ? ledger.at(kRead) : kNone;
  const KindLedger& wr = ledger.count(kWrite) ? ledger.at(kWrite) : kNone;
  all.Add(rd);
  all.Add(wr);
  const double frames = static_cast<double>(all.groups);
  const double remainder = all.call_ns - all.ReplaySum();
  const double served = static_cast<double>(c1.frames - c0.frames);
  const double rpcs = static_cast<double>(c1.rpcs - c0.rpcs);
  std::vector<double> loop_cpu;
  for (size_t i = 0; i < c1.loop_cpu.size(); ++i) {
    loop_cpu.push_back(c1.loop_cpu[i] -
                       (i < c0.loop_cpu.size() ? c0.loop_cpu[i] : 0));
  }
  double loop_sum = 0;
  double loop_max = 0;
  for (double v : loop_cpu) {
    loop_sum += v;
    loop_max = std::max(loop_max, v);
  }

  LayerValues v;
  v["client.self_us_per_call"] = Ratio(all.Replay(kSpanRoute), all.calls) / 1e3;
  v["client.groups_per_call"] = Ratio(frames, all.calls);
  v["client.retries_per_kcall"] =
      Ratio(1e3 * (c1.client_retries - c0.client_retries), calls);
  v["wire.frames_per_call"] = Ratio(rpcs, calls);
  v["wire.retries_per_kcall"] =
      Ratio(1e3 * (c1.wire_retries - c0.wire_retries), calls);
  v["wire.dispatch_us_per_frame"] =
      Ratio(all.Replay(kSpanDispatch) - all.Replay(kSpanLock) -
                all.Replay(kSpanOp),
            frames) / 1e3;
  v["net.frame_encode_us"] = Ratio(all.Replay(kSpanEncode), frames) / 1e3;
  v["net.frame_decode_us"] = Ratio(all.Replay(kSpanDecode), frames) / 1e3;
  v["net.frame_bytes_per_item"] = Ratio(all.bytes, all.items);
  v["net.socket_us_per_frame"] = Ratio(remainder, frames) / 1e3;
  v["net.forwarded_frac"] = Ratio(c1.forwarded - c0.forwarded, served);
  v["net.shared_fallback_frac"] = Ratio(c1.fallback - c0.fallback, served);
  v["net.loop_cpu_us_per_frame"] = Ratio(loop_sum * 1e6, served);
  v["net.loop_imbalance"] =
      Ratio(loop_max, loop_sum / std::max<size_t>(loop_cpu.size(), 1));
  v["net.coalesced_frac"] = Ratio(c1.coalesced - c0.coalesced, rpcs);
  v["block.lock_wait_us"] =
      Ratio(all.Replay(kSpanLock), all.ReplayCount(kSpanLock)) / 1e3;
  v["block.biased_frac"] = Ratio(c1.biased - c0.biased, served);
  v["block.bias_revokes_per_kframe"] =
      Ratio(1e3 * (c1.revokes - c0.revokes), served);
  v["ds.kv_read_us_per_item"] = Ratio(rd.Replay(kSpanOp), rd.items) / 1e3;
  v["ds.kv_write_us_per_item"] = Ratio(wr.Replay(kSpanOp), wr.items) / 1e3;
  v["core.leaked_blocks"] = static_cast<double>(leaked);
  v["obs.remainder_us_per_call"] = Ratio(remainder, all.calls) / 1e3;
  correct &= session->Report(&v, out);
  out->Info("ledger per call (us): call=%.2f route=%.2f encode=%.2f "
            "decode=%.2f dispatch=%.2f lock=%.2f op=%.2f remainder=%.2f",
            Ratio(all.call_ns, all.calls) / 1e3,
            Ratio(all.Replay(kSpanRoute), all.calls) / 1e3,
            Ratio(all.Replay(kSpanEncode), all.calls) / 1e3,
            Ratio(all.Replay(kSpanDecode), all.calls) / 1e3,
            Ratio(all.Replay(kSpanDispatch), all.calls) / 1e3,
            Ratio(all.Replay(kSpanLock), all.calls) / 1e3,
            Ratio(all.Replay(kSpanOp), all.calls) / 1e3,
            Ratio(remainder, all.calls) / 1e3);
  EmitLayers("kv_wire", v, out);
  return out->Finish(correct, attempted, failed);
}

}  // namespace perfbench
