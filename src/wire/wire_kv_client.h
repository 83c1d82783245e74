// KV client speaking the binary wire protocol (DESIGN.md §12).
//
// WireKvClient is the socket-native sibling of KvClient: keys hash to
// slots, a WireMap routes slot ranges to (endpoint, block), and operations
// for the same block coalesce into one frame. A call's frames for one
// pooled connection leave together in ONE socket write
// (TcpConnection::SubmitBatch), in chunks of at most the connection's
// window, each chunk's tags reserved at once; completions match back by
// tag, and the caller is woken once, by the last. The retry layer
// (DESIGN.md §10) runs on top: transport-level kTimeout / kUnavailable
// verdicts (real connection failures or FaultPlan-injected ones) are
// retried per group with exponential backoff on the real clock, and
// per-item kStaleMetadata answers trigger a map refresh + re-route of only
// the displaced items when a refresher is installed — round after round,
// with backoff, until the retry policy's op_deadline passes (a split's
// commit may still be pending).
//
// Repartitioning over the wire is out of scope for this layer: the WireMap
// is a routing snapshot, refreshed as a whole; wire clients never split or
// merge blocks themselves (DESIGN.md §12).

#ifndef SRC_WIRE_WIRE_KV_CLIENT_H_
#define SRC_WIRE_WIRE_KV_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/client/retry.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/net/frame.h"
#include "src/net/network.h"
#include "src/net/tcp_client.h"

namespace jiffy {

// One wire-reachable server process.
struct WireEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Identity for FaultPlan outage windows (matches FaultPlan::Outage's
  // endpoint field, like the modeled transport's server ids).
  uint32_t server_id = 0;
};

// One contiguous slot range hosted by one block on one endpoint.
struct WireRange {
  uint32_t slot_lo = 0;
  uint32_t slot_hi = 0;  // exclusive
  uint64_t block = 0;    // BlockId::Packed()
  size_t endpoint = 0;   // index into WireMap::endpoints
};

// Routing snapshot: the wire analogue of a cached PartitionMap.
struct WireMap {
  uint32_t total_slots = 1024;
  std::vector<WireEndpoint> endpoints;
  std::vector<WireRange> ranges;

  // Index into `ranges` owning `slot`; SIZE_MAX when unrouted (stale map).
  size_t Route(uint32_t slot) const;

  // Evenly partitions the slot space across `endpoints`, one block per
  // endpoint — the standalone jiffy_server topology.
  static WireMap Even(std::vector<WireEndpoint> endpoints,
                      uint32_t total_slots,
                      const std::vector<uint64_t>& blocks);
};

class WireKvClient {
 public:
  struct Options {
    RetryPolicy retry;
    size_t max_in_flight = 64;  // Per pooled connection.
    // Timer coalescing of lone frames (a one-group call, a retry, a Ping)
    // on the pooled connections (tcp_client.h): once ≥
    // `coalesce_min_inflight` RPCs are outstanding on a connection, a lone
    // frame waits up to `coalesce_window_us` to share a write; an idle pipe
    // always writes immediately. 0 = off. A batch of two or more frames
    // never waits.
    size_t coalesce_min_inflight = 16;
    uint64_t coalesce_window_us = 40;
    // SO_SNDBUF / SO_RCVBUF for dialed connections; 0 = kernel default.
    int sndbuf = 0;
    int rcvbuf = 0;
    Clock* clock = nullptr;     // Default RealClock.
    // Client-frame-layer fault injection (wire parity with the modeled
    // transport's FaultPlan; see tcp_client.h).
    FaultPlan faults;
    bool faults_on = false;
    // Re-fetches the routing snapshot after kStaleMetadata answers.
    // Unset = stale items fail with the server's verdict.
    std::function<Result<WireMap>()> map_refresher;
  };

  explicit WireKvClient(WireMap map)
      : WireKvClient(std::move(map), Options()) {}
  WireKvClient(WireMap map, Options options);

  // Single ops travel as a batch of one.
  Status Put(std::string_view key, std::string_view value);
  Result<std::string> Get(std::string_view key);
  Status Delete(std::string_view key);

  // Batched ops, aligned index-for-index with the input. Groups for
  // distinct blocks are in flight together, one write per connection.
  std::vector<Status> MultiPut(
      const std::vector<std::pair<std::string_view, std::string_view>>& pairs);
  WireValues MultiGet(const std::vector<std::string_view>& keys);
  std::vector<Status> MultiDelete(const std::vector<std::string_view>& keys);

  Status Ping(size_t endpoint_index);

  const WireMap& map() const { return map_; }
  TcpConnectionPool* pool() { return &pool_; }

  // Wire exchanges sent (frames, not items) and group-level retries.
  uint64_t rpcs_sent() const { return rpcs_.load(); }
  uint64_t retries() const { return retries_.load(); }

 private:
  struct Group;  // One per-block frame's worth of items.

  // Builds groups, submits every group's frame in one batch per
  // connection, waits once, retries retryable transport failures, merges
  // per-item codes, and re-routes stale items until op_deadline. `payload`
  // is non-null for MultiGet — receives each item's value view anchored in
  // `bufs`.
  void Run(WireOp op,
           const std::vector<std::string_view>& keys,
           const std::vector<std::pair<std::string_view, std::string_view>>*
               pairs,
           std::vector<Status>* statuses, WireValues* payload);

  // One group's full exchange: encode → submit → wait → retry loop.
  // Returns the final reply (transport status set on exhaustion).
  WireReply ExchangeGroup(WireOp op, const Group& group,
                          const std::vector<std::string_view>& keys,
                          const std::vector<std::pair<std::string_view,
                                                      std::string_view>>*
                              pairs);

  WireMap map_;
  Options options_;
  Clock* clock_;
  TcpConnectionPool pool_;
  AtomicRng retry_rng_{0x5157495245ull};  // "WIRE"
  std::atomic<int> retry_budget_{Retrier::kBudgetMax};
  std::atomic<uint64_t> rpcs_{0};
  std::atomic<uint64_t> retries_{0};
};

}  // namespace jiffy

#endif  // SRC_WIRE_WIRE_KV_CLIENT_H_
