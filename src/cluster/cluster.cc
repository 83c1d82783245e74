#include "src/cluster/cluster.h"

#include "src/common/hash.h"
#include "src/ds/custom.h"
#include "src/ds/file_content.h"
#include "src/ds/kv_content.h"
#include "src/ds/queue_content.h"
#include "src/obs/trace.h"

namespace jiffy {

JiffyCluster::JiffyCluster(const Options& options)
    : config_(options.config), clock_(options.clock) {
  if (options.backing != nullptr) {
    backing_ = options.backing;
  } else {
    owned_backing_ = MakeLocalStore();
    backing_ = owned_backing_.get();
  }
  allocator_ = std::make_shared<BlockAllocator>(config_.num_memory_servers,
                                                config_.blocks_per_server);
  servers_.reserve(config_.num_memory_servers);
  for (uint32_t s = 0; s < config_.num_memory_servers; ++s) {
    servers_.push_back(std::make_unique<MemoryServer>(
        s, config_.blocks_per_server, config_.block_size_bytes));
  }
  shards_ = std::max<uint32_t>(config_.controller_shards, 1);
  replicas_per_shard_ = std::max<uint32_t>(config_.controller_replicas, 1);
  controllers_.reserve(shards_ * replicas_per_shard_);
  for (uint32_t i = 0; i < shards_ * replicas_per_shard_; ++i) {
    controllers_.push_back(std::make_unique<Controller>(
        config_, clock_, allocator_, this, backing_));
  }
  control_transport_ = std::make_unique<Transport>(
      options.net_model, options.net_mode, clock_, /*seed=*/7);
  data_transport_ = std::make_unique<Transport>(
      options.net_model, options.net_mode, clock_, /*seed=*/8);
  if (replicas_per_shard_ > 1) {
    groups_.reserve(shards_);
    for (uint32_t s = 0; s < shards_; ++s) {
      std::vector<Controller*> members;
      members.reserve(replicas_per_shard_);
      for (uint32_t r = 0; r < replicas_per_shard_; ++r) {
        members.push_back(controllers_[s * replicas_per_shard_ + r].get());
      }
      groups_.push_back(std::make_unique<rsm::ControllerGroup>(
          config_, clock_, std::move(members), control_transport_.get()));
    }
  }

  // Bind every component to the cluster-wide metrics registry.
  allocator_->BindMetrics(&metrics_);
  for (auto& server : servers_) {
    server->BindMetrics(&metrics_);
  }
  for (uint32_t i = 0; i < controllers_.size(); ++i) {
    controllers_[i]->BindMetrics(&metrics_, i);
  }
  control_transport_->BindMetrics(&metrics_, "control");
  data_transport_->BindMetrics(&metrics_, "data");
  m_init_blocks_ = metrics_.GetCounter("cluster.init_blocks_total");
  m_serialize_blocks_ = metrics_.GetCounter("cluster.serialize_blocks_total");
  m_restore_blocks_ = metrics_.GetCounter("cluster.restore_blocks_total");
  m_reset_blocks_ = metrics_.GetCounter("cluster.reset_blocks_total");

  Repartitioner::Hooks hooks;
  hooks.resolve = [this](BlockId id) { return ResolveBlock(id); };
  hooks.controller = [this](const std::string& job) {
    return ControllerFor(job);
  };
  hooks.ds_state = [this](const std::string& job, const std::string& prefix) {
    return registry_.GetOrCreate(job, prefix);
  };
  repartitioner_ = std::make_unique<Repartitioner>(
      config_, clock_, std::move(hooks), control_transport_.get(),
      data_transport_.get());
  repartitioner_->BindMetrics(&metrics_);
  repartitioner_->Start();
}

JiffyCluster::~JiffyCluster() {
  // The worker thread reaches into servers/controllers through the hooks;
  // stop it before anything else is torn down.
  repartitioner_->Stop();
}

Controller* JiffyCluster::controller_shard(uint32_t i) {
  if (!groups_.empty()) {
    return groups_[i]->LeaderController();
  }
  return controllers_[i].get();
}

Controller* JiffyCluster::ControllerFor(const std::string& job) {
  return controller_shard(
      static_cast<uint32_t>(Fnv1a64(job) % shards_));
}

Block* JiffyCluster::ResolveBlock(BlockId id) {
  // A server inside a fault-plan outage window is indistinguishable from a
  // failed one at resolution time, so clients take the same FailOver path.
  if (id.server_id >= servers_.size() || servers_[id.server_id]->failed() ||
      !data_transport_->EndpointReachable(id.server_id)) {
    return nullptr;
  }
  return servers_[id.server_id]->block(id.slot);
}

bool JiffyCluster::IsBlockLive(BlockId id) {
  return id.server_id < servers_.size() && !servers_[id.server_id]->failed() &&
         data_transport_->EndpointReachable(id.server_id) &&
         id.slot < servers_[id.server_id]->num_blocks();
}

void JiffyCluster::FailServer(uint32_t i) {
  if (i >= servers_.size()) {
    return;
  }
  servers_[i]->Fail();
  allocator_->MarkServerDead(i);
  // Repair the metadata plane eagerly: promote live replicas of every chain
  // that lost a member, re-replicate to restore chain length, and flag
  // entries with no survivor — otherwise GetPartitionMap keeps handing out
  // dead addresses until some client happens to trip FailOver. Under a
  // replicated control plane only each shard's leader holds metadata; the
  // repair itself quorum-commits like any other mutation.
  for (uint32_t s = 0; s < shards_; ++s) {
    controller_shard(s)->HandleServerFailure(i);
  }
}

std::string JiffyCluster::HealthReport(bool json) {
  char buf[512];
  const size_t capacity = TotalCapacityBytes();
  const size_t allocated = AllocatedBytes();
  const obs::MetricsSnapshot snap = MetricsSnapshot();
  const uint64_t masked = snap.SumCounters("faults_masked_total");
  const uint64_t retries = snap.SumCounters("retries_total");
  if (json) {
    std::snprintf(buf, sizeof(buf),
                  "{\"capacity_bytes\":%zu,\"allocated_bytes\":%zu,"
                  "\"utilization\":%.4f,\"retries\":%llu,"
                  "\"masked_faults\":%llu,\"slo_alerts\":%llu,"
                  "\"tenants\":",
                  capacity, allocated,
                  capacity == 0
                      ? 0.0
                      : static_cast<double>(allocated) /
                            static_cast<double>(capacity),
                  static_cast<unsigned long long>(retries),
                  static_cast<unsigned long long>(masked),
                  static_cast<unsigned long long>(slo_.alerts_fired()));
    return std::string(buf) + slo_.ReportJson() + "}";
  }
  std::snprintf(buf, sizeof(buf),
                "cluster: capacity %zu MB, allocated %zu MB (%.1f%%), "
                "retries %llu, masked faults %llu, slo alerts %llu\n",
                capacity >> 20, allocated >> 20,
                capacity == 0 ? 0.0
                              : 100.0 * static_cast<double>(allocated) /
                                    static_cast<double>(capacity),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(masked),
                static_cast<unsigned long long>(slo_.alerts_fired()));
  return std::string(buf) + slo_.ReportText();
}

size_t JiffyCluster::AllocatedBytes() const {
  return static_cast<size_t>(allocator_->allocated_count()) *
         config_.block_size_bytes;
}

size_t JiffyCluster::UsedBytes() {
  size_t total = 0;
  for (auto& s : servers_) {
    total += s->UsedBytes();
  }
  return total;
}

Status JiffyCluster::InitBlock(BlockId id, DsType type, uint64_t lo,
                               uint64_t hi, const std::string& job,
                               const std::string& prefix,
                               const std::string& custom_type) {
  JIFFY_TRACE_SPAN("data.init_block", "data");
  obs::Inc(m_init_blocks_);
  Block* block = ResolveBlock(id);
  if (block == nullptr) {
    return Internal("InitBlock: unknown block " + id.ToString());
  }
  std::unique_ptr<BlockContent> content;
  switch (type) {
    case DsType::kFile:
      content = std::make_unique<FileChunk>(block->capacity(), lo);
      break;
    case DsType::kQueue:
      content = std::make_unique<QueueSegment>(block->capacity());
      break;
    case DsType::kKvStore:
      content = std::make_unique<KvShard>(block->capacity(),
                                          static_cast<uint32_t>(lo),
                                          static_cast<uint32_t>(hi),
                                          config_.kv_hash_slots);
      break;
    case DsType::kCustom: {
      const CustomDsSpec* spec = CustomDsRegistry::Instance()->Find(custom_type);
      if (spec == nullptr) {
        return InvalidArgument("unknown custom data structure '" +
                               custom_type + "'");
      }
      content = spec->factory(block->capacity(), lo, hi);
      break;
    }
  }
  Block::OpLock lock(*block);
  block->InstallContent(std::move(content));
  block->set_allocated(true);
  block->SetOwner(job, prefix);
  return Status::Ok();
}

Result<std::string> JiffyCluster::SerializeBlock(BlockId id) {
  JIFFY_TRACE_SPAN("data.serialize_block", "data");
  obs::Inc(m_serialize_blocks_);
  Block* block = ResolveBlock(id);
  if (block == nullptr) {
    return Internal("SerializeBlock: unknown block " + id.ToString());
  }
  Block::OpLock lock(*block);
  if (block->content() == nullptr) {
    return FailedPrecondition("block " + id.ToString() + " has no content");
  }
  return block->content()->Serialize();
}

Status JiffyCluster::RestoreBlock(BlockId id, DsType type,
                                  const std::string& data, uint64_t lo,
                                  uint64_t hi, const std::string& job,
                                  const std::string& prefix,
                                  const std::string& custom_type) {
  JIFFY_TRACE_SPAN("data.restore_block", "data");
  obs::Inc(m_restore_blocks_);
  Block* block = ResolveBlock(id);
  if (block == nullptr) {
    return Internal("RestoreBlock: unknown block " + id.ToString());
  }
  std::unique_ptr<BlockContent> content;
  switch (type) {
    case DsType::kFile: {
      auto chunk = FileChunk::Deserialize(block->capacity(), lo, data);
      if (!chunk.ok()) {
        return chunk.status();
      }
      content = std::move(*chunk);
      break;
    }
    case DsType::kQueue: {
      auto seg = QueueSegment::Deserialize(block->capacity(), data);
      if (!seg.ok()) {
        return seg.status();
      }
      content = std::move(*seg);
      break;
    }
    case DsType::kKvStore: {
      auto shard = KvShard::Deserialize(
          block->capacity(), static_cast<uint32_t>(lo),
          static_cast<uint32_t>(hi), config_.kv_hash_slots, data);
      if (!shard.ok()) {
        return shard.status();
      }
      content = std::move(*shard);
      break;
    }
    case DsType::kCustom: {
      const CustomDsSpec* spec = CustomDsRegistry::Instance()->Find(custom_type);
      if (spec == nullptr) {
        return InvalidArgument("unknown custom data structure '" +
                               custom_type + "'");
      }
      auto restored = spec->deserialize(block->capacity(), lo, hi, data);
      if (!restored.ok()) {
        return restored.status();
      }
      content = std::move(*restored);
      break;
    }
  }
  Block::OpLock lock(*block);
  block->InstallContent(std::move(content));
  block->set_allocated(true);
  block->SetOwner(job, prefix);
  return Status::Ok();
}

Status JiffyCluster::ResetBlock(BlockId id) {
  JIFFY_TRACE_SPAN("data.reset_block", "data");
  obs::Inc(m_reset_blocks_);
  Block* block = ResolveBlock(id);
  if (block == nullptr) {
    return Internal("ResetBlock: unknown block " + id.ToString());
  }
  Block::OpLock lock(*block);
  block->RemoveContent();
  block->set_allocated(false);
  block->SetOwner("", "");
  return Status::Ok();
}

}  // namespace jiffy
