// Causal trace-context propagation (DESIGN.md §6): one client op's
// trace_id must reach every layer it touches — client span, transport
// round trips, server-side block operators, and background work
// (repartitioner, repair) that it triggered — with parent links that chain
// back to the client root, in-process and in the exported Chrome JSON.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/client/jiffy_client.h"
#include "src/obs/trace.h"

namespace jiffy {
namespace {

// Restores tracer/flag state on scope exit (mirrors obs_test.cc).
class TraceStateGuard {
 public:
  TraceStateGuard()
      : enabled_(obs::Enabled()),
        trace_enabled_(obs::Tracer::Global()->enabled()) {
    obs::SetEnabled(true);
    obs::Tracer::Global()->SetEnabled(true);
    obs::SetTraceSampleEvery(1);
    obs::Tracer::Global()->Clear();
  }
  ~TraceStateGuard() {
    obs::SetEnabled(enabled_);
    obs::Tracer::Global()->SetEnabled(trace_enabled_);
    obs::SetTraceSampleEvery(1);
    obs::Tracer::Global()->Clear();
  }

 private:
  bool enabled_;
  bool trace_enabled_;
};

std::vector<obs::TraceEvent> EventsNamed(
    const std::vector<obs::TraceEvent>& events, std::string_view name) {
  std::vector<obs::TraceEvent> out;
  for (const auto& e : events) {
    if (std::string_view(e.name) == name) {
      out.push_back(e);
    }
  }
  return out;
}

// Follows parent links from `span_id` up to a root within one trace.
// Returns true iff the chain reaches `ancestor` before running out.
bool ChainsTo(const std::map<uint64_t, const obs::TraceEvent*>& by_span,
              uint64_t span_id, uint64_t ancestor) {
  for (int hops = 0; hops < 64; ++hops) {
    if (span_id == ancestor) {
      return true;
    }
    auto it = by_span.find(span_id);
    if (it == by_span.end() || it->second->parent_id == 0) {
      return false;
    }
    span_id = it->second->parent_id;
  }
  return false;
}

// --- Context mechanics -------------------------------------------------------

TEST(TraceContextTest, ChildInheritsTraceIdAndLinksToParent) {
  TraceStateGuard guard;
  obs::TraceContext outer_ctx;
  {
    obs::TraceSpan outer("outer", "test");
    outer_ctx = outer.context();
    ASSERT_TRUE(outer_ctx.active());
    EXPECT_EQ(outer_ctx.parent_id, 0u);  // Fresh root.
    { JIFFY_TRACE_SPAN("inner", "test"); }
  }
  const auto events = obs::Tracer::Global()->Collect();
  const auto inner = EventsNamed(events, "inner");
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0].trace_id, outer_ctx.trace_id);
  EXPECT_EQ(inner[0].parent_id, outer_ctx.span_id);
  EXPECT_NE(inner[0].span_id, outer_ctx.span_id);
}

TEST(TraceContextTest, ExplicitParentCarriesAcrossThreads) {
  TraceStateGuard guard;
  obs::TraceContext handoff;
  {
    obs::TraceSpan root("producer", "test");
    handoff = obs::CurrentTraceContext();
  }
  ASSERT_TRUE(handoff.active());
  std::thread worker([&handoff] {
    JIFFY_TRACE_SPAN_UNDER("consumer", "worker", handoff);
  });
  worker.join();
  const auto events = obs::Tracer::Global()->Collect();
  const auto producer = EventsNamed(events, "producer");
  const auto consumer = EventsNamed(events, "consumer");
  ASSERT_EQ(producer.size(), 1u);
  ASSERT_EQ(consumer.size(), 1u);
  EXPECT_EQ(consumer[0].trace_id, producer[0].trace_id);
  EXPECT_EQ(consumer[0].parent_id, producer[0].span_id);
  EXPECT_NE(consumer[0].tid, producer[0].tid);
  // Cross-thread parent links are rendered as Chrome flow-event pairs.
  const std::string json = obs::Tracer::Global()->ToChromeJson();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST(TraceContextTest, InactiveExplicitParentFallsBackToThreadLocal) {
  TraceStateGuard guard;
  const obs::TraceContext none;  // E.g. a hint flagged while tracing was off.
  obs::TraceContext outer_ctx;
  {
    obs::TraceSpan outer("outer", "test");
    outer_ctx = outer.context();
    { JIFFY_TRACE_SPAN_UNDER("under_none", "test", none); }
  }
  const auto events = obs::Tracer::Global()->Collect();
  const auto under = EventsNamed(events, "under_none");
  ASSERT_EQ(under.size(), 1u);
  EXPECT_EQ(under[0].trace_id, outer_ctx.trace_id);
  EXPECT_EQ(under[0].parent_id, outer_ctx.span_id);
}

TEST(TraceContextTest, SamplingSuppressesWholeSubtrees) {
  TraceStateGuard guard;
  obs::SetTraceSampleEvery(2);
  // Two root+child pairs on one thread: exactly one pair wins the 1-in-2
  // coin flip (the per-thread phase is unknown, the count is not).
  for (int i = 0; i < 2; ++i) {
    obs::TraceSpan root("s_root", "test");
    JIFFY_TRACE_SPAN("s_child", "test");
  }
  obs::SetTraceSampleEvery(1);
  const auto events = obs::Tracer::Global()->Collect();
  const auto roots = EventsNamed(events, "s_root");
  const auto children = EventsNamed(events, "s_child");
  // Suppressed spans still record (ring pressure unchanged) — with zero ids.
  ASSERT_EQ(roots.size(), 2u);
  ASSERT_EQ(children.size(), 2u);
  int sampled_roots = 0, sampled_children = 0;
  for (const auto& e : roots) {
    sampled_roots += e.trace_id != 0 ? 1 : 0;
  }
  for (const auto& e : children) {
    sampled_children += e.trace_id != 0 ? 1 : 0;
  }
  EXPECT_EQ(sampled_roots, 1);
  EXPECT_EQ(sampled_children, 1);  // The child follows its root's fate.
}

TEST(TraceContextTest, InternedNamePointersAreStable) {
  const char* a = obs::InternedName("tenant-alpha");
  const char* b = obs::InternedName("tenant-alpha");
  const char* c = obs::InternedName("tenant-beta");
  EXPECT_EQ(a, b);  // Same string → same pointer (usable as a span name).
  EXPECT_NE(a, c);
  EXPECT_EQ(std::string_view(a), "tenant-alpha");
  EXPECT_EQ(std::string_view(c), "tenant-beta");
}

// --- End-to-end propagation --------------------------------------------------

class TraceClusterTest : public ::testing::Test {
 protected:
  std::unique_ptr<JiffyCluster> MakeCluster(uint32_t block_size = 16 << 10) {
    JiffyCluster::Options opts;
    opts.config.num_memory_servers = 4;
    opts.config.blocks_per_server = 64;
    opts.config.block_size_bytes = block_size;
    opts.config.lease_duration = 3600 * kSecond;
    return std::make_unique<JiffyCluster>(opts);
  }
};

TEST_F(TraceClusterTest, ClientOpStampsOneTraceIdAcrossLayers) {
  TraceStateGuard guard;
  auto cluster = MakeCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  obs::Tracer::Global()->Clear();  // Only the op under test.
  ASSERT_TRUE((*kv)->Put("k", "v").ok());

  const auto events = obs::Tracer::Global()->Collect();
  const auto put = EventsNamed(events, "kv.put");
  ASSERT_EQ(put.size(), 1u);
  const uint64_t trace_id = put[0].trace_id;
  ASSERT_NE(trace_id, 0u);
  EXPECT_EQ(put[0].parent_id, 0u);  // The client op is the trace root.

  std::map<uint64_t, const obs::TraceEvent*> by_span;
  for (const auto& e : events) {
    if (e.trace_id == trace_id) {
      by_span[e.span_id] = &e;
    }
  }
  // Acceptance: the same trace_id on transport and server-block spans, each
  // chaining back to the client root via parent links.
  for (const char* layer : {"net.rtt", "block.kv_put"}) {
    const auto spans = EventsNamed(events, layer);
    ASSERT_FALSE(spans.empty()) << layer;
    for (const auto& e : spans) {
      EXPECT_EQ(e.trace_id, trace_id) << layer;
      EXPECT_TRUE(ChainsTo(by_span, e.span_id, put[0].span_id)) << layer;
    }
  }
  // The exported Chrome JSON carries the ids (hex) and the tenant label.
  std::ostringstream hex_id;
  hex_id << std::hex << trace_id;
  const std::string json = obs::Tracer::Global()->ToChromeJson();
  EXPECT_NE(json.find("\"trace\":\"" + hex_id.str() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kv.put\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"job\""), std::string::npos);
}

TEST_F(TraceClusterTest, RepartitionerLinksBackToTriggeringOp) {
  TraceStateGuard guard;
  // Small blocks so the write stream trips background splits.
  auto cluster = MakeCluster(/*block_size=*/4096);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  const std::string value(256, 'r');
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), value).ok()) << i;
  }
  cluster->repartitioner()->WaitIdle();

  const auto events = obs::Tracer::Global()->Collect();
  const auto processed = EventsNamed(events, "repartition.process");
  ASSERT_FALSE(processed.empty()) << "no background repartition ran";

  std::set<uint64_t> client_traces;
  std::map<uint64_t, const obs::TraceEvent*> by_span;
  for (const auto& e : events) {
    if (std::string_view(e.name) == "kv.put") {
      client_traces.insert(e.trace_id);
    }
    by_span[e.span_id] = &e;
  }
  // At least one background migration joined the trace of the client op
  // that flagged it, linked to a span inside that op (cross-thread edge).
  bool linked = false;
  for (const auto& e : processed) {
    if (e.trace_id != 0 && client_traces.count(e.trace_id) > 0) {
      EXPECT_NE(e.parent_id, 0u);
      auto parent = by_span.find(e.parent_id);
      ASSERT_NE(parent, by_span.end());
      EXPECT_EQ(parent->second->trace_id, e.trace_id);
      linked = true;
    }
  }
  EXPECT_TRUE(linked) << "repartition.process never joined a client trace";
}

TEST_F(TraceClusterTest, CriticalPathDecomposesOneRequest) {
  TraceStateGuard guard;
  auto cluster = MakeCluster();
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  obs::Tracer::Global()->Clear();
  ASSERT_TRUE((*kv)->Put("k", std::string(1024, 'v')).ok());

  const auto events = obs::Tracer::Global()->Collect();
  const auto put = EventsNamed(events, "kv.put");
  ASSERT_EQ(put.size(), 1u);
  const auto report = obs::Tracer::Global()->CriticalPath(put[0].trace_id);
  EXPECT_EQ(report.trace_id, put[0].trace_id);
  EXPECT_GE(report.span_count, 3u);  // Client + transport + block at least.
  EXPECT_GT(report.total_ns, 0);
  EXPECT_GE(report.execute_ns, 0);
  EXPECT_GE(report.transport_ns, 0);
  EXPECT_GE(report.lock_ns, 0);
  // Self-times over the whole trace can exceed the root's wall time only
  // when background spans join the trace; none ran here.
  EXPECT_LE(report.queue_ns + report.transport_ns + report.lock_ns +
                report.execute_ns,
            report.total_ns + 1);
  EXPECT_FALSE(report.ToString().empty());
  // An unknown trace folds to an empty report, not a crash.
  EXPECT_EQ(obs::Tracer::Global()->CriticalPath(~0ull - 1).span_count, 0u);
}

}  // namespace
}  // namespace jiffy
