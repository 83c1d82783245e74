#include "src/net/tcp_client.h"

#include <sys/socket.h>

#include <future>
#include <utility>
#include <vector>

namespace jiffy {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

WireReply TransportError(Status st) {
  WireReply r;
  r.transport = std::move(st);
  return r;
}

}  // namespace

Result<std::unique_ptr<TcpConnection>> TcpConnection::Connect(
    const std::string& host, uint16_t port, Options options) {
  auto fd = TcpConnect(host, port, options.nodelay);
  JIFFY_RETURN_IF_ERROR(fd.status());
  SetSocketBufs(fd->get(), options.sndbuf, options.rcvbuf);
  return std::unique_ptr<TcpConnection>(
      new TcpConnection(std::move(*fd), std::move(options)));
}

TcpConnection::TcpConnection(Fd fd, Options options)
    : fd_(std::move(fd)),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : RealClock::Instance()),
      window_(options_.max_in_flight),
      fault_rng_(options_.faults.seed) {
  reader_ = std::thread([this] { ReaderLoop(); });
  if (options_.coalesce_min_inflight > 0) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
}

TcpConnection::~TcpConnection() {
  closing_.store(true, std::memory_order_release);
  flush_cv_.notify_all();
  if (flusher_.joinable()) {
    flusher_.join();  // Drains wbuf_ on its way out (best effort).
  }
  // Shutdown wakes the reader out of read(); it then fails all pending.
  ::shutdown(fd_.get(), SHUT_RDWR);
  if (reader_.joinable()) {
    reader_.join();
  }
}

uint64_t TcpConnection::BeginTag(size_t n) { return window_.Begin(n); }

bool TcpConnection::InjectFault(uint64_t tag, const Callback& cb) {
  if (!options_.faults_on) {
    return false;
  }
  const FaultPlan& plan = options_.faults;
  // Outage windows fail fast, mirroring Transport::ExchangeInternal.
  const TimeNs now = clock_->Now();
  for (const FaultPlan::Outage& o : plan.outages) {
    if (o.endpoint == options_.endpoint && now >= o.from && now < o.until) {
      fault_outages_.fetch_add(1, std::memory_order_relaxed);
      window_.Complete(tag, Status::Ok());
      cb(TransportError(Unavailable("injected outage")));
      return true;
    }
  }
  if (!plan.probabilistic()) {
    return false;
  }
  double roll;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    roll = fault_rng_.NextDouble();
  }
  if (roll < plan.drop_prob) {
    // Lost on the wire: the caller sees a timeout; nothing is sent, so the
    // server genuinely never executes the op.
    fault_drops_.fetch_add(1, std::memory_order_relaxed);
    if (plan.drop_timeout > 0) {
      clock_->SleepFor(plan.drop_timeout);
    }
    window_.Complete(tag, Status::Ok());
    cb(TransportError(Timeout("injected drop")));
    return true;
  }
  roll -= plan.drop_prob;
  if (roll < plan.error_prob) {
    fault_errors_.fetch_add(1, std::memory_order_relaxed);
    window_.Complete(tag, Status::Ok());
    cb(TransportError(Unavailable("injected error")));
    return true;
  }
  roll -= plan.error_prob;
  if (roll < plan.delay_prob) {
    fault_delays_.fetch_add(1, std::memory_order_relaxed);
    if (plan.extra_delay > 0) {
      clock_->SleepFor(plan.extra_delay);
    }
    // Delayed but delivered: fall through to the real send.
  }
  return false;
}

void TcpConnection::Submit(std::string frame, uint64_t tag, Callback cb) {
  Submission one{std::move(frame), tag, std::move(cb)};
  SubmitBatch(std::span<Submission>(&one, 1));
}

void TcpConnection::SubmitBatch(std::span<Submission> batch) {
  // Fault verdicts in submission order; a faulted frame has completed
  // inline, and the survivors close up at the front.
  size_t live = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (InjectFault(batch[i].tag, batch[i].cb)) {
      continue;
    }
    if (live != i) {
      batch[live] = std::move(batch[i]);
    }
    ++live;
  }
  batch = batch.first(live);
  if (batch.empty()) {
    return;
  }
  // Registered before the write: a response may beat WriteFull's return.
  // FailAllPending clears alive_ before it takes pending_mu_, so checking
  // under the lock means a frame is either registered in time for the
  // reader to fail it or sees the connection dead here.
  bool dead = false;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    dead = !alive_.load(std::memory_order_acquire);
    if (!dead) {
      for (Submission& s : batch) {
        pending_.emplace(s.tag, std::move(s.cb));
      }
    }
  }
  if (dead) {
    for (Submission& s : batch) {
      window_.Complete(s.tag, Status::Ok());
      s.cb(TransportError(Unavailable("connection closed")));
    }
    return;
  }
  // Adaptive coalescing: a lone frame on a busy pipe (≥ min_inflight
  // outstanding) buffers for the flusher. It is already registered, so
  // FailAllPending covers it if the connection dies before the flush.
  const bool buffer = batch.size() == 1 &&
                      options_.coalesce_min_inflight > 0 &&
                      window_.in_flight() >= options_.coalesce_min_inflight;
  Status st;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (buffer) {
      if (wbuf_.empty()) {
        wbuf_deadline_ = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(options_.coalesce_window_us);
      }
      wbuf_.append(batch[0].frame);
      coalesced_frames_.fetch_add(1, std::memory_order_relaxed);
      if (wbuf_.size() < options_.coalesce_max_bytes) {
        flush_cv_.notify_one();
        return;
      }
      st = FlushBufferLocked();
    } else if (batch.size() == 1 && wbuf_.empty()) {
      st = WriteLocked(batch[0].frame.data(), batch[0].frame.size());
    } else {
      // One write for the whole batch, behind any buffered frames so none
      // queues behind an immediate write.
      if (batch.size() > 1) {
        coalesced_frames_.fetch_add(batch.size(), std::memory_order_relaxed);
      }
      for (const Submission& s : batch) {
        wbuf_.append(s.frame);
      }
      st = FlushBufferLocked();
    }
  }
  if (st.ok()) {
    return;
  }
  // Fail exactly this batch's frames that are still pending; the reader may
  // already have failed some of them via FailAllPending.
  std::vector<std::pair<uint64_t, Callback>> taken;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (const Submission& s : batch) {
      auto it = pending_.find(s.tag);
      if (it != pending_.end()) {
        taken.emplace_back(s.tag, std::move(it->second));
        pending_.erase(it);
      }
    }
  }
  const Status why = Unavailable("write failed: " + st.message());
  for (auto& [tag, cb] : taken) {
    window_.Complete(tag, Status::Ok());
    cb(TransportError(why));
  }
}

Status TcpConnection::WriteLocked(const char* data, size_t len) {
  Status st = WriteFull(fd_.get(), data, len);
  if (!st.ok()) {
    alive_.store(false, std::memory_order_release);
    ::shutdown(fd_.get(), SHUT_RDWR);
  }
  return st;
}

Status TcpConnection::FlushBufferLocked() {
  if (wbuf_.empty()) {
    return Status::Ok();
  }
  Status st = WriteLocked(wbuf_.data(), wbuf_.size());
  wbuf_.clear();
  coalesced_flushes_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

void TcpConnection::FlusherLoop() {
  std::unique_lock<std::mutex> lock(write_mu_);
  while (!closing_.load(std::memory_order_acquire)) {
    if (wbuf_.empty()) {
      flush_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    // Sleep until the oldest buffered frame's budget expires; submitters
    // may flush (max_bytes) or extend the buffer meanwhile.
    const auto deadline = wbuf_deadline_;
    if (std::chrono::steady_clock::now() < deadline) {
      flush_cv_.wait_until(lock, deadline);
      continue;  // Re-evaluate: the buffer may have been flushed already.
    }
    // A failed flush tears the connection down; the reader fails the tags.
    (void)FlushBufferLocked();
  }
  (void)FlushBufferLocked();  // Drain the tail so no frame is stranded.
}

WireReply TcpConnection::Call(std::string frame, uint64_t tag) {
  std::promise<WireReply> promise;
  std::future<WireReply> future = promise.get_future();
  Submit(std::move(frame), tag,
         [&promise](WireReply r) { promise.set_value(std::move(r)); });
  return future.get();
}

void TcpConnection::ReaderLoop() {
  std::string buf;
  FrameReader reader;
  for (;;) {
    const size_t old_size = buf.size();
    buf.resize(old_size + kReadChunk);
    auto n = ReadSome(fd_.get(), buf.data() + old_size, kReadChunk);
    if (!n.ok() || *n == 0) {
      buf.resize(old_size);
      FailAllPending(Unavailable(closing_.load() ? "connection closed"
                                                 : "connection lost"));
      return;
    }
    buf.resize(old_size + *n);
    for (;;) {
      std::string_view body;
      const Status st = reader.Next(buf, &body);
      if (st.code() == StatusCode::kUnavailable) {
        break;
      }
      DecodedResponse dec;
      if (!st.ok() || !DecodeResponse(body, &dec).ok()) {
        FailAllPending(Unavailable("malformed response frame"));
        return;
      }
      Callback cb;
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        auto it = pending_.find(dec.tag);
        if (it != pending_.end()) {
          cb = std::move(it->second);
          pending_.erase(it);
        }
      }
      if (!cb) {
        continue;  // Tag already failed (e.g. racing connection error).
      }
      // Re-anchor the decoded views onto one owned copy of the body — the
      // single client-side copy per exchange.
      WireReply reply;
      reply.transport = Status::Ok();
      reply.op = dec.op;
      reply.overall = dec.overall;
      reply.codes = std::move(dec.codes);
      reply.buf.assign(body.data(), body.size());
      reply.values.reserve(dec.values.size());
      for (std::string_view v : dec.values) {
        const size_t at = static_cast<size_t>(v.data() - body.data());
        reply.values.push_back(
            std::string_view(reply.buf.data() + at, v.size()));
      }
      window_.Complete(dec.tag, Status::Ok());
      cb(std::move(reply));
    }
    const size_t consumed = reader.offset();
    if (consumed == buf.size()) {
      buf.clear();
      reader.Rebase(consumed);
    } else if (consumed >= (1u << 20)) {
      buf.erase(0, consumed);
      reader.Rebase(consumed);
    }
  }
}

void TcpConnection::FailAllPending(const Status& why) {
  alive_.store(false, std::memory_order_release);
  std::unordered_map<uint64_t, Callback> taken;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    taken.swap(pending_);
  }
  for (auto& [tag, cb] : taken) {
    window_.Complete(tag, Status::Ok());
    cb(TransportError(why));
  }
}

TcpConnectionPool::TcpConnectionPool(TcpConnection::Options defaults)
    : defaults_(std::move(defaults)) {}

Result<TcpConnection*> TcpConnectionPool::Get(const std::string& host,
                                              uint16_t port,
                                              uint32_t endpoint) {
  const std::string key = host + ":" + std::to_string(port);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = conns_.find(key);
  if (it != conns_.end() && it->second->alive()) {
    return it->second.get();
  }
  TcpConnection::Options opts = defaults_;
  opts.endpoint = endpoint;
  auto conn = TcpConnection::Connect(host, port, std::move(opts));
  JIFFY_RETURN_IF_ERROR(conn.status());
  TcpConnection* raw = conn->get();
  conns_[key] = std::move(*conn);
  return raw;
}

void TcpConnectionPool::Evict(const std::string& host, uint16_t port) {
  const std::string key = host + ":" + std::to_string(port);
  std::lock_guard<std::mutex> lock(mu_);
  conns_.erase(key);
}

void TcpConnectionPool::InstallFaultPlan(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  defaults_.faults = std::move(plan);
  defaults_.faults_on = true;
}

void TcpConnectionPool::ClearFaultPlan() {
  std::lock_guard<std::mutex> lock(mu_);
  defaults_.faults_on = false;
}

}  // namespace jiffy
