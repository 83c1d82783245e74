#include "src/client/ds_client.h"

#include <algorithm>
#include <utility>

namespace jiffy {

DsClient::DsClient(JiffyCluster* cluster, std::string job, std::string prefix,
                   PartitionMap initial_map, const char* kind)
    : cluster_(cluster),
      job_(std::move(job)),
      prefix_(std::move(prefix)),
      tenant_(obs::TenantOf(job_)),
      kind_(kind),
      retry_rng_(Fnv1a64(prefix_, Fnv1a64(job_)) | 1) {
  SetMap(std::move(initial_map));
  state_ = cluster_->registry()->GetOrCreate(job_, prefix_);
  // Bind per-tenant attribution once; every op then records through cached
  // pointers (src/obs/metrics.h "Attribution").
  const obs::TenantLabels labels{tenant_, job_, kind_};
  obs::MetricsRegistry* reg = cluster_->metrics();
  tenant_attr_ = obs::InternedName(tenant_);
  m_ops_ = reg->GetCounter("client.ops_total", labels);
  m_errors_ = reg->GetCounter("client.op_errors_total", labels);
  m_retries_ = reg->GetCounter("client.retries_total", labels);
  m_masked_ = reg->GetCounter("client.faults_masked_total", labels);
  m_req_bytes_ = reg->GetCounter("client.wire_req_bytes_total", labels);
  m_resp_bytes_ = reg->GetCounter("client.wire_resp_bytes_total", labels);
  m_op_latency_ = reg->GetHistogram("client.op_latency_ns", labels);
  slo_ = cluster_->slo()->Handle(tenant_);
}

void DsClient::RecordOp(DurationNs latency_ns, bool ok) {
  obs::Inc(m_ops_);
  if (!ok) {
    obs::Inc(m_errors_);
  }
  obs::Observe(m_op_latency_, latency_ns);
  slo_->Record(latency_ns, ok);
}

Status DsClient::ExchangeWithRetry(Transport* net, uint32_t endpoint,
                                   size_t n_ops, size_t req_bytes,
                                   size_t resp_bytes) {
  std::atomic<int>* budget = &state_->retry_budget;
  Retrier retrier(retry_policy_, clock(), &retry_rng_, budget);
  for (;;) {
    Status st;
    {
      // One span per wire attempt: under faults a retried exchange shows up
      // as sibling net.attempt spans within the same trace.
      JIFFY_TRACE_SPAN("net.attempt", "net");
      st = n_ops <= 1
               ? net->Exchange(endpoint, req_bytes, resp_bytes)
               : net->ExchangeBatch(endpoint, n_ops, req_bytes, resp_bytes);
    }
    if (st.ok()) {
      obs::Inc(m_req_bytes_, req_bytes);
      obs::Inc(m_resp_bytes_, resp_bytes);
      Retrier::RecordSuccess(budget);
      if (retrier.failures() > 0) {
        state_->masked_faults.fetch_add(retrier.failures(),
                                        std::memory_order_relaxed);
        obs::Inc(m_masked_, static_cast<uint64_t>(retrier.failures()));
      }
      return st;
    }
    if (!retrier.ShouldRetry(st)) {
      return st;
    }
    state_->retries.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(m_retries_);
    {
      // Backoff is queueing delay, not transport time: CriticalPath charges
      // it to the "queue" segment.
      JIFFY_TRACE_SPAN("retry.backoff", "queue");
      retrier.Backoff(net);
    }
  }
}

Status DsClient::DataExchange(BlockId target, size_t req_bytes,
                              size_t resp_bytes) {
  return ExchangeWithRetry(data_net(), target.server_id, 1, req_bytes,
                           resp_bytes);
}

Status DsClient::DataExchangeBatch(BlockId target, size_t n_ops,
                                   size_t req_bytes, size_t resp_bytes) {
  return ExchangeWithRetry(data_net(), target.server_id, n_ops, req_bytes,
                           resp_bytes);
}

Status DsClient::ControlExchange(size_t req_bytes, size_t resp_bytes) {
  // The controller is not a memory-server endpoint, so outage windows never
  // match it; probabilistic faults still apply.
  return ExchangeWithRetry(control_net(), Transport::kAnyEndpoint, 1,
                           req_bytes, resp_bytes);
}

std::shared_ptr<Listener> DsClient::Subscribe(const std::string& op) {
  // One control-plane round trip to register the subscription.
  control_net()->RoundTrip(64, 64);
  return state_->subscriptions.Subscribe(op);
}

void DsClient::Unsubscribe(const std::string& op,
                           const std::shared_ptr<Listener>& l) {
  control_net()->RoundTrip(64, 64);
  state_->subscriptions.Unsubscribe(op, l);
}

void DsClient::SetMap(PartitionMap map) {
  auto snap = std::make_shared<MapSnapshot>();
  if (map.type == DsType::kKvStore) {
    const uint32_t slots = config().kv_hash_slots;
    snap->slot_entry.assign(slots, MapSnapshot::kUnmapped);
    // An entry fills only the slots no earlier entry owns, so overlapping
    // or unsorted entries route each slot to its first owner.
    for (size_t e = 0; e < map.entries.size(); ++e) {
      const PartitionEntry& entry = map.entries[e];
      for (uint64_t slot = entry.lo; slot < std::min<uint64_t>(entry.hi, slots);
           ++slot) {
        if (snap->slot_entry[slot] == MapSnapshot::kUnmapped) {
          snap->slot_entry[slot] = static_cast<uint32_t>(e);
        }
      }
    }
  }
  snap->map = std::move(map);
  std::shared_ptr<const MapSnapshot> old;  // Freed after the unlock.
  std::lock_guard<std::mutex> lock(map_mu_);
  old = std::exchange(map_, std::move(snap));
}

PartitionMap DsClient::CachedMap() const { return Snapshot()->map; }

uint64_t DsClient::map_version() const { return Snapshot()->map.version; }

size_t DsClient::map_entry_count() const {
  return Snapshot()->map.entries.size();
}

Status DsClient::RefreshMap() { return RefreshMapInternal(); }

Status DsClient::RefreshMapInternal() {
  JIFFY_RETURN_IF_ERROR(ControlExchange(64, 256));
  auto map = controller()->GetPartitionMap(job_, prefix_);
  if (!map.ok()) {
    return map.status();
  }
  SetMap(std::move(*map));
  return Status::Ok();
}

void DsClient::ChargeRepartitionControl() {
  if (control_net()->mode() == Transport::Mode::kSleep) {
    clock()->SleepFor(1200 * kMicrosecond);  // Controller connection setup.
  }
  control_net()->RoundTrip(128, 128);  // Overload/underload signal → alloc.
  control_net()->RoundTrip(128, 128);  // Partition-metadata update.
}

Status DsClient::FailOver(const PartitionEntry& entry) {
  JIFFY_RETURN_IF_ERROR(ControlExchange(128, 128));
  Status st = controller()->RepairEntry(job_, prefix_, entry.block);
  if (!st.ok() && st.code() != StatusCode::kNotFound) {
    return st;  // kUnavailable: all replicas lost.
  }
  // kNotFound means the entry was removed (e.g. merged away) — the refresh
  // below sorts the client out either way.
  return RefreshMapInternal();
}

void DsClient::FlagPressure(Block* block, BlockId id, DsType type,
                            Repartitioner::Pressure pressure) {
  Repartitioner::Hint hint;
  hint.job = job_;
  hint.prefix = prefix_;
  hint.block = id;
  hint.type = type;
  hint.pressure = pressure;
  cluster_->repartitioner()->Flag(block, std::move(hint));
}

void DsClient::MaybePersist(const PartitionEntry& entry) {
  if (!Snapshot()->map.persist_writes) {
    return;
  }
  if (backing() == nullptr) {
    return;
  }
  Block* block = Resolve(entry.block);
  if (block == nullptr) {
    return;
  }
  std::string payload;
  {
    Block::OpLock lock(*block);
    if (block->content() == nullptr) {
      return;
    }
    payload = block->content()->Serialize();
  }
  std::string object = std::to_string(entry.lo) + " " +
                       std::to_string(entry.hi) + "\n" + payload;
  backing()->Put("sync/" + job_ + "/" + prefix_ + "/" + entry.block.ToString(),
                 std::move(object));
}

void DsClient::Publish(std::string_view op, std::string_view payload) {
  // No subscribers (the common case on the data plane): skip building the
  // notification entirely — one relaxed load per committed op.
  if (!state_->subscriptions.HasSubscribers()) {
    return;
  }
  Notification n;
  n.op = std::string(op);
  n.subject = "/" + job_ + "/" + prefix_;
  n.payload = std::string(payload);
  n.timestamp = clock()->Now();
  state_->subscriptions.Publish(n);
}

}  // namespace jiffy
