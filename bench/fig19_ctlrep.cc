// Fig 19 (extension): replicated control plane — the cost of quorum.
//
// Left panel: metadata mutation latency (Cas / CreateAddrPrefix) with a
// single controller vs a 3-replica group. A mutation on the quorum path
// appends a job-blob entry and fans AppendEntries out in parallel, so the
// acceptance bar is p50(quorum) <= 2x p50(single) on a modeled intra-DC
// wire. The hot mutation is a Cas that toggles one tag, so every call
// applies and the job blob keeps its size.
//
// Middle panel: leased local ops (GetLeaseDuration, RenewLease). The
// leader serves lookups and lease renewals locally under its read lease —
// replication must not show up here at all.
//
// Right panel: failover window — crash the leader under closed-loop
// renewals and measure wall time until the next metadata op succeeds
// (election timeout + election RTTs + promotion no-op commit).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/client/jiffy_client.h"

using namespace jiffy;

namespace {

std::unique_ptr<JiffyCluster> MakeCluster(uint32_t controller_replicas) {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 64;
  opts.config.block_size_bytes = 64 << 10;
  opts.config.lease_duration = 3600 * kSecond;
  opts.config.controller_replicas = controller_replicas;
  opts.net_mode = Transport::Mode::kSleep;
  opts.net_model = NetworkModel::Ec2IntraDc();
  return std::make_unique<JiffyCluster>(opts);
}

struct PlaneResult {
  uint32_t replicas = 1;
  Histogram cas;      // Cas toggling one tag: hot mutation (blob delta only).
  Histogram create;   // CreateAddrPrefix: mutation that allocates blocks.
  Histogram lookup;   // GetLeaseDuration: leased local read.
  Histogram renew;    // RenewLease: leased local lease stamp.
};

// Closed-loop metadata ops against a cluster with `replicas` controller
// replicas per shard. Fills `out` in place (Histogram is not movable).
void RunPlane(uint32_t replicas, int ops, PlaneResult* out) {
  auto cluster = MakeCluster(replicas);
  JiffyClient client(cluster.get());
  client.RegisterJob("job");
  client.CreateAddrPrefix("/job/hot", {});

  out->replicas = replicas;
  RealClock* clock = RealClock::Instance();
  const char* tag[] = {"0", "1"};
  client.Cas("/job/hot", "toggle", "", tag[0]);
  for (int i = 0; i < ops; ++i) {
    const TimeNs t0 = clock->Now();
    client.Cas("/job/hot", "toggle", tag[i % 2], tag[(i + 1) % 2]);
    out->cas.Record(clock->Now() - t0);
  }
  for (int i = 0; i < ops; ++i) {
    const std::string addr = "/job/p" + std::to_string(i);
    const TimeNs t0 = clock->Now();
    client.CreateAddrPrefix(addr, {});
    out->create.Record(clock->Now() - t0);
  }
  for (int i = 0; i < ops; ++i) {
    const TimeNs t0 = clock->Now();
    client.GetLeaseDuration("/job/hot");
    out->lookup.Record(clock->Now() - t0);
  }
  for (int i = 0; i < ops; ++i) {
    const TimeNs t0 = clock->Now();
    client.RenewLease("/job/hot");
    out->renew.Record(clock->Now() - t0);
  }
}

// One plane's p50/p99 fields for the JSON result, in microseconds.
std::string PlaneJson(const PlaneResult& p) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"cas_p50_us\": %.1f, \"cas_p99_us\": %.1f, \"create_p50_us\": %.1f, "
      "\"create_p99_us\": %.1f, \"lookup_p50_us\": %.1f, "
      "\"lookup_p99_us\": %.1f, \"renew_p50_us\": %.1f, "
      "\"renew_p99_us\": %.1f",
      p.cas.Percentile(0.50) / 1e3, p.cas.Percentile(0.99) / 1e3,
      p.create.Percentile(0.50) / 1e3, p.create.Percentile(0.99) / 1e3,
      p.lookup.Percentile(0.50) / 1e3, p.lookup.Percentile(0.99) / 1e3,
      p.renew.Percentile(0.50) / 1e3, p.renew.Percentile(0.99) / 1e3);
  return buf;
}

struct FailoverResult {
  DurationNs window_ns = 0;  // Leader crash -> first successful op.
  int old_leader = -1;
  int new_leader = -1;
};

// Crashes the leader of a 3-replica group and measures the client-visible
// outage: the next RenewLease retries through the election and succeeds on
// the newly promoted leader.
FailoverResult RunFailover() {
  auto cluster = MakeCluster(3);
  JiffyClient client(cluster.get());
  client.RegisterJob("job");
  client.CreateAddrPrefix("/job/hot", {});
  client.RenewLease("/job/hot");  // Warm: leader elected, lease granted.

  rsm::ControllerGroup* group = cluster->controller_group(0);
  FailoverResult result;
  result.old_leader = group->leader_index();

  RealClock* clock = RealClock::Instance();
  const TimeNs t0 = clock->Now();
  group->Crash(result.old_leader);
  Status st = client.RenewLease("/job/hot");
  result.window_ns = clock->Now() - t0;
  result.new_leader = group->leader_index();
  if (!st.ok()) {
    std::printf("  !! failover renew failed: %s\n", st.message().c_str());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  PrintHeader("Fig 19", "Replicated control plane: quorum cost and failover");

  const int ops = smoke ? 200 : 2000;
  PlaneResult single;
  PlaneResult quorum;
  RunPlane(1, ops, &single);
  RunPlane(3, ops, &quorum);

  std::printf("\nMetadata op latency, 1 vs 3 controller replicas (%d ops)\n",
              ops);
  std::printf("%22s %10s %10s %10s %10s\n", "", "R=1 p50", "R=1 p99",
              "R=3 p50", "R=3 p99");
  struct Row {
    const char* name;
    const Histogram* a;
    const Histogram* b;
  } rows[] = {
      {"Cas (us)", &single.cas, &quorum.cas},
      {"CreateAddrPrefix (us)", &single.create, &quorum.create},
      {"GetLeaseDuration (us)", &single.lookup, &quorum.lookup},
      {"RenewLease (us)", &single.renew, &quorum.renew},
  };
  for (const Row& r : rows) {
    std::printf("%22s %10.1f %10.1f %10.1f %10.1f\n", r.name,
                r.a->Percentile(0.50) / 1e3, r.a->Percentile(0.99) / 1e3,
                r.b->Percentile(0.50) / 1e3, r.b->Percentile(0.99) / 1e3);
  }
  const double mutation_ratio =
      static_cast<double>(quorum.cas.Percentile(0.50)) /
      static_cast<double>(single.cas.Percentile(0.50));
  const double lookup_ratio =
      static_cast<double>(quorum.lookup.Percentile(0.50)) /
      static_cast<double>(single.lookup.Percentile(0.50));
  const double renew_ratio =
      static_cast<double>(quorum.renew.Percentile(0.50)) /
      static_cast<double>(single.renew.Percentile(0.50));
  std::printf("  quorum/single mutation p50 ratio: %.2fx (bar: <= 2.0x)\n",
              mutation_ratio);
  std::printf("  quorum/single lookup   p50 ratio: %.2fx (local reads)\n",
              lookup_ratio);
  std::printf("  quorum/single renew    p50 ratio: %.2fx (local renewals)\n",
              renew_ratio);

  FailoverResult fo = RunFailover();
  std::printf("\nLeader failover (3 replicas, leader %d crashed)\n",
              fo.old_leader);
  std::printf("  client-visible window: %.3f ms (new leader: %d)\n",
              fo.window_ns / 1e6, fo.new_leader);

  const std::string single_json = PlaneJson(single);
  const std::string quorum_json = PlaneJson(quorum);
  char json[1536];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"bench\": \"fig19_ctlrep\",\n"
                "  \"ops\": %d,\n"
                "  \"single\": {%s},\n"
                "  \"quorum\": {\"replicas\": 3, %s},\n"
                "  \"mutation_p50_ratio\": %.3f,\n"
                "  \"lookup_p50_ratio\": %.3f,\n"
                "  \"renew_p50_ratio\": %.3f,\n"
                "  \"failover\": {\"window_ms\": %.3f, \"old_leader\": %d, "
                "\"new_leader\": %d}\n"
                "}\n",
                ops, single_json.c_str(), quorum_json.c_str(), mutation_ratio,
                lookup_ratio, renew_ratio, fo.window_ns / 1e6, fo.old_leader,
                fo.new_leader);
  const char* out_path = "BENCH_fig19_ctlrep.json";
  if (FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json, f);
    std::fclose(f);
    std::printf("  -> %s\n", out_path);
  }

  std::printf(
      "\nexpectation: quorum mutations within 2x of single-controller (one\n"
      "parallel AppendEntries round trip added); lookups and renewals\n"
      "unchanged (leased local ops); failover ~ election timeout + a few\n"
      "control RTTs.\n");
  return 0;
}
