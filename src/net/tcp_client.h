// Pooled async TCP client for the binary wire protocol (DESIGN.md §12).
//
// One TcpConnection multiplexes many RPCs: BeginTag(n) reserves n window
// slots at once (backpressure at `max_in_flight`), SubmitBatch(frames)
// registers every frame's completion and sends them all in ONE socket
// write, and a dedicated reader thread matches response frames back to
// callbacks BY TAG — arrival order is irrelevant, which is what lets the
// server (or the network) reorder freely. Submit(frame, tag, cb) is a batch
// of one and Call() the synchronous convenience on top; there is no other
// write path.
//
// Fault parity with the modeled transport: a FaultPlan installed on the
// connection is evaluated per frame, in submission order, at the frame
// layer — drops synthesize kTimeout without sending, errors synthesize
// kUnavailable, delays stall the send, and outage windows fail fast — so
// the retry/failover layer (DESIGN.md §10) masks wire faults exactly as it
// masks modeled ones, and a seeded plan draws the same verdicts whether
// frames arrive one by one or in batches.

#ifndef SRC_NET_TCP_CLIENT_H_
#define SRC_NET_TCP_CLIENT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/net/completion.h"
#include "src/net/frame.h"
#include "src/net/network.h"
#include "src/net/socket.h"

namespace jiffy {

// One completed RPC. `transport` reports wire-level failure (connection
// death, injected drop/outage); when it is OK, `overall`/`codes`/`values`
// carry the server's answer. `values` view into `buf`, the one owned copy
// of the response body this client makes.
struct WireReply {
  Status transport;
  WireOp op = WireOp::kPing;
  StatusCode overall = StatusCode::kOk;
  std::vector<StatusCode> codes;
  std::string buf;
  std::vector<std::string_view> values;

  bool ok() const { return transport.ok() && overall == StatusCode::kOk; }
};

class TcpConnection {
 public:
  using Callback = std::function<void(WireReply)>;

  // One frame of a batch: `frame` encodes `tag`, and `cb` runs exactly once
  // with its reply.
  struct Submission {
    std::string frame;
    uint64_t tag = 0;
    Callback cb;
  };

  struct Options {
    size_t max_in_flight = 64;  // Window bound for BeginTag (0 = unbounded).
    // Adaptive send coalescing for single frames: with at least
    // `coalesce_min_inflight` RPCs outstanding the pipe is busy anyway, so a
    // lone frame buffers up to `coalesce_window_us` (or until
    // `coalesce_max_bytes` accumulate) and leaves in one write; below the
    // threshold it is written immediately — an idle pipe never waits. 0
    // disables buffering. Batches of two or more never wait: they are
    // written at once and carry any buffered frames out with them.
    size_t coalesce_min_inflight = 0;
    uint64_t coalesce_window_us = 40;
    size_t coalesce_max_bytes = 256 * 1024;
    // SO_SNDBUF / SO_RCVBUF; 0 = kernel default.
    int sndbuf = 0;
    int rcvbuf = 0;
    // TCP_NODELAY. Off only for benchmarking the pre-NODELAY wire path.
    bool nodelay = true;
    // Fault injection (off unless faults_on). `endpoint` identifies this
    // connection's server for outage windows; `clock` supplies the time
    // axis those windows are defined on (defaults to RealClock).
    FaultPlan faults;
    bool faults_on = false;
    uint32_t endpoint = 0xffffffffu;  // Transport::kAnyEndpoint
    Clock* clock = nullptr;
  };

  // Blocking connect; spawns the reader thread on success.
  static Result<std::unique_ptr<TcpConnection>> Connect(
      const std::string& host, uint16_t port, Options options);

  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Reserves `n` window slots at once and returns the first of `n`
  // consecutive tags to encode into the frames. Blocks until `n` slots are
  // free; 1 <= n <= window_depth() (any n when unbounded). Every reserved
  // tag must be submitted exactly once.
  uint64_t BeginTag(size_t n = 1);

  // The `max_in_flight` bound BeginTag enforces (0 = unbounded).
  size_t window_depth() const { return window_.depth(); }

  // Sends the encoded frames (each tag must match its frame's tag field)
  // and registers each callback to run — on the reader thread — when its
  // tagged response arrives. Each frame first draws its fault-plan verdict,
  // in order; a faulted frame completes inline and is left out of the
  // write. The survivors are registered, then written together in one
  // socket write that also carries out any buffered frames. If the write
  // fails, the frames still pending complete with kUnavailable (the reader
  // may already have failed some) and the connection is torn down.
  // Callbacks are moved out of `batch`.
  void SubmitBatch(std::span<Submission> batch);

  // A batch of one; a lone frame may wait in the coalesce buffer.
  void Submit(std::string frame, uint64_t tag, Callback cb);

  // Synchronous round trip: BeginTag is assumed already called by the
  // caller who encoded `frame` with `tag`.
  WireReply Call(std::string frame, uint64_t tag);

  // True until the connection has failed (reader saw EOF/error). Pending
  // and future submissions complete with kUnavailable once dead.
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  // Deepest concurrently-outstanding RPC count observed on this connection.
  size_t max_in_flight_seen() const { return window_.max_in_flight(); }

  uint64_t fault_drops() const { return fault_drops_.load(); }
  uint64_t fault_errors() const { return fault_errors_.load(); }
  uint64_t fault_delays() const { return fault_delays_.load(); }
  uint64_t fault_outages() const { return fault_outages_.load(); }

  // Coalescing diagnostics: frames that shared a write (buffered single
  // frames, and every frame of a batch of two or more), and the writes that
  // carried them (frames/flushes = achieved batching factor).
  uint64_t coalesced_frames() const { return coalesced_frames_.load(); }
  uint64_t coalesced_flushes() const { return coalesced_flushes_.load(); }

 private:
  TcpConnection(Fd fd, Options options);

  void ReaderLoop();
  void FlusherLoop();
  // Writes `len` bytes; caller holds write_mu_. On failure the connection
  // is torn down (shutdown + alive_=false): the stream may hold a partial
  // frame, and the reader's FailAllPending completes every pending tag —
  // including buffered frames of other submitters.
  Status WriteLocked(const char* data, size_t len);
  // Writes and clears the coalesce buffer; caller holds write_mu_.
  Status FlushBufferLocked();
  void FailAllPending(const Status& why);
  // Evaluates the fault plan for one submission. Returns true when the
  // submission was consumed (callback already completed); may sleep for
  // delay faults.
  bool InjectFault(uint64_t tag, const Callback& cb);

  Fd fd_;
  Options options_;
  Clock* clock_;
  CompletionWindow window_;
  std::atomic<bool> alive_{true};
  std::atomic<bool> closing_{false};

  std::mutex write_mu_;  // Serializes frame writes from submitters.
  // Coalesce state, guarded by write_mu_. `wbuf_deadline_` is the
  // steady-clock instant the flusher must push `wbuf_` out by (set when the
  // first frame lands in an empty buffer).
  std::string wbuf_;
  std::chrono::steady_clock::time_point wbuf_deadline_{};
  std::condition_variable flush_cv_;
  std::atomic<uint64_t> coalesced_frames_{0};
  std::atomic<uint64_t> coalesced_flushes_{0};

  std::mutex pending_mu_;
  std::unordered_map<uint64_t, Callback> pending_;

  Rng fault_rng_;
  std::mutex fault_mu_;  // Guards fault_rng_ (Submit is multi-threaded).
  std::atomic<uint64_t> fault_drops_{0};
  std::atomic<uint64_t> fault_errors_{0};
  std::atomic<uint64_t> fault_delays_{0};
  std::atomic<uint64_t> fault_outages_{0};

  std::thread reader_;
  std::thread flusher_;  // Only spawned when coalescing is enabled.
};

// Lazily-connected cache of one TcpConnection per endpoint string
// ("host:port"). Connections are shared — callers multiplex by tag, so one
// socket per server is the steady state, exactly the pooling a Lambda-side
// client would keep.
class TcpConnectionPool {
 public:
  explicit TcpConnectionPool(TcpConnection::Options defaults = {});

  // Returns the pooled connection for host:port, dialing on first use.
  // `endpoint` labels the connection for outage-window matching.
  Result<TcpConnection*> Get(const std::string& host, uint16_t port,
                             uint32_t endpoint);

  // Drops a dead connection so the next Get re-dials.
  void Evict(const std::string& host, uint16_t port);

  // Applies to connections dialed after this call.
  void InstallFaultPlan(FaultPlan plan);
  void ClearFaultPlan();

 private:
  TcpConnection::Options defaults_;
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<TcpConnection>> conns_;
};

}  // namespace jiffy

#endif  // SRC_NET_TCP_CLIENT_H_
