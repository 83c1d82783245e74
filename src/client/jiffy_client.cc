#include "src/client/jiffy_client.h"

#include <atomic>

#include "src/core/address.h"

namespace jiffy {

namespace {

// Whether a controller answer means "mid-failover, ask the (new) leader".
bool Retryable(const Status& s) {
  return s.code() == StatusCode::kUnavailable;
}
template <typename T>
bool Retryable(const Result<T>& r) {
  return !r.ok() && r.status().code() == StatusCode::kUnavailable;
}

std::atomic<uint64_t> g_client_counter{0};

}  // namespace

JiffyClient::JiffyClient(JiffyCluster* cluster, std::string principal)
    : cluster_(cluster),
      principal_(std::move(principal)),
      client_id_("client-" +
                 std::to_string(g_client_counter.fetch_add(1) + 1)) {}

template <typename Fn>
auto JiffyClient::WithMetaRetry(const std::string& job, Fn&& fn)
    -> decltype(fn(static_cast<Controller*>(nullptr))) {
  constexpr int kAttempts = 4;
  auto result = fn(cluster_->ControllerFor(job));
  for (int attempt = 1; attempt < kAttempts && Retryable(result); ++attempt) {
    // ControllerFor re-resolves the shard leader, electing one if needed.
    result = fn(cluster_->ControllerFor(job));
  }
  return result;
}

Result<std::pair<std::string, std::string>> JiffyClient::SplitAddr(
    const std::string& addr) {
  JIFFY_ASSIGN_OR_RETURN(AddressPath path, AddressPath::Parse(addr));
  if (path.depth() < 2) {
    return InvalidArgument("address must be /job/task...: " + addr);
  }
  JIFFY_RETURN_IF_ERROR(WithMetaRetry(
      path.job(), [&](Controller* ctl) { return ctl->ValidatePath(path); }));
  return std::make_pair(path.job(), path.leaf());
}

Status JiffyClient::RegisterJob(const std::string& job) {
  cluster_->control_transport()->RoundTrip(64, 64);
  return WithMetaRetry(
      job, [&](Controller* ctl) { return ctl->RegisterJob(job); });
}

Status JiffyClient::DeregisterJob(const std::string& job) {
  cluster_->control_transport()->RoundTrip(64, 64);
  JIFFY_RETURN_IF_ERROR(WithMetaRetry(
      job, [&](Controller* ctl) { return ctl->DeregisterJob(job); }));
  cluster_->registry()->RemoveJob(job);
  return Status::Ok();
}

Status JiffyClient::CreateAddrPrefix(const std::string& addr,
                                     const std::vector<std::string>& parents,
                                     const CreateOptions& opts) {
  cluster_->control_transport()->RoundTrip(128, 64);
  JIFFY_ASSIGN_OR_RETURN(AddressPath path, AddressPath::Parse(addr));
  if (path.depth() < 2) {
    return InvalidArgument("address must be /job/task: " + addr);
  }
  return WithMetaRetry(path.job(), [&](Controller* ctl) {
    return ctl->CreateAddrPrefix(path.job(), path.leaf(), parents, opts);
  });
}

Status JiffyClient::CreateHierarchy(
    const std::string& job,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& dag,
    const CreateOptions& opts) {
  cluster_->control_transport()->RoundTrip(64 + 32 * dag.size(), 64);
  return WithMetaRetry(job, [&](Controller* ctl) {
    return ctl->CreateHierarchy(job, dag, opts);
  });
}

Result<DurationNs> JiffyClient::GetLeaseDuration(const std::string& addr) {
  cluster_->control_transport()->RoundTrip(64, 64);
  JIFFY_ASSIGN_OR_RETURN(auto split, SplitAddr(addr));
  return WithMetaRetry(split.first, [&](Controller* ctl) {
    return ctl->GetLeaseDuration(split.first, split.second);
  });
}

Status JiffyClient::RenewLease(const std::string& addr) {
  cluster_->control_transport()->RoundTrip(64, 64);
  JIFFY_ASSIGN_OR_RETURN(auto split, SplitAddr(addr));
  // Lease renewal is idempotent, so riding through a leader crash with a
  // blind retry is safe even when the first attempt was applied.
  auto renewed = WithMetaRetry(split.first, [&](Controller* ctl) {
    return ctl->RenewLease(split.first, split.second);
  });
  if (!renewed.ok()) {
    return renewed.status();
  }
  return Status::Ok();
}

Result<Controller::CasResult> JiffyClient::Cas(const std::string& addr,
                                               const std::string& key,
                                               const std::string& expected,
                                               const std::string& desired) {
  cluster_->control_transport()->RoundTrip(128, 64);
  JIFFY_ASSIGN_OR_RETURN(auto split, SplitAddr(addr));
  // One sequence number per logical Cas: retries after a mid-commit leader
  // crash replay the same (client, seq) and get the recorded outcome back
  // from the session table instead of applying twice.
  const uint64_t seq = ++cas_seq_;
  return WithMetaRetry(split.first, [&](Controller* ctl) {
    return ctl->CasTag(split.first, split.second, key, expected, desired,
                       client_id_, seq);
  });
}

Status JiffyClient::FlushAddrPrefix(const std::string& addr,
                                    const std::string& external_path) {
  cluster_->control_transport()->RoundTrip(128, 64);
  JIFFY_ASSIGN_OR_RETURN(auto split, SplitAddr(addr));
  return WithMetaRetry(split.first, [&](Controller* ctl) {
    return ctl->FlushAddrPrefix(split.first, split.second, external_path);
  });
}

Status JiffyClient::LoadAddrPrefix(const std::string& addr,
                                   const std::string& external_path) {
  cluster_->control_transport()->RoundTrip(128, 64);
  JIFFY_ASSIGN_OR_RETURN(auto split, SplitAddr(addr));
  return WithMetaRetry(split.first, [&](Controller* ctl) {
    return ctl->LoadAddrPrefix(split.first, split.second, external_path);
  });
}

Status JiffyClient::PrepareForLoad(const std::string& addr, DsType type) {
  cluster_->control_transport()->RoundTrip(128, 64);
  JIFFY_ASSIGN_OR_RETURN(auto split, SplitAddr(addr));
  return WithMetaRetry(split.first, [&](Controller* ctl) {
    return ctl->PrepareForLoad(split.first, split.second, type);
  });
}

template <typename ClientT>
Result<std::unique_ptr<ClientT>> JiffyClient::OpenDs(
    const std::string& addr, DsType type, uint64_t initial_capacity_bytes) {
  cluster_->control_transport()->RoundTrip(128, 256);
  JIFFY_ASSIGN_OR_RETURN(auto split, SplitAddr(addr));
  Controller* ctl = cluster_->ControllerFor(split.first);
  // Access control (Fig 7): a foreign principal attaching to another job's
  // data structure is checked against the prefix's permissions.
  const std::string principal =
      principal_.empty() ? split.first : principal_;
  auto map = ctl->InitDataStructure(split.first, split.second, type,
                                    initial_capacity_bytes);
  if (!map.ok()) {
    if (map.status().code() != StatusCode::kAlreadyExists) {
      return map.status();
    }
    // Attach to the existing data structure (permission-checked).
    map = ctl->GetPartitionMapAs(principal, split.first, split.second,
                                 /*for_write=*/true);
    if (!map.ok() &&
        map.status().code() == StatusCode::kPermissionDenied) {
      // Fall back to read-only attachment when writes are restricted.
      map = ctl->GetPartitionMapAs(principal, split.first, split.second,
                                   /*for_write=*/false);
    }
    if (!map.ok()) {
      return map.status();
    }
  }
  if (map->type != type) {
    return FailedPrecondition("'" + addr + "' holds a " +
                              DsTypeName(map->type) + ", not a " +
                              DsTypeName(type));
  }
  return std::make_unique<ClientT>(cluster_, split.first, split.second,
                                   std::move(*map));
}

Result<std::unique_ptr<FileClient>> JiffyClient::OpenFile(
    const std::string& addr, uint64_t initial_capacity_bytes) {
  return OpenDs<FileClient>(addr, DsType::kFile, initial_capacity_bytes);
}

Result<std::unique_ptr<QueueClient>> JiffyClient::OpenQueue(
    const std::string& addr, uint64_t initial_capacity_bytes) {
  return OpenDs<QueueClient>(addr, DsType::kQueue, initial_capacity_bytes);
}

Result<std::unique_ptr<KvClient>> JiffyClient::OpenKv(
    const std::string& addr, uint64_t initial_capacity_bytes) {
  return OpenDs<KvClient>(addr, DsType::kKvStore, initial_capacity_bytes);
}

Result<std::unique_ptr<CustomDsClient>> JiffyClient::OpenCustom(
    const std::string& addr, const std::string& type_name,
    uint64_t initial_capacity_bytes) {
  if (CustomDsRegistry::Instance()->Find(type_name) == nullptr) {
    return InvalidArgument("custom data structure '" + type_name +
                           "' is not registered");
  }
  cluster_->control_transport()->RoundTrip(128, 256);
  JIFFY_ASSIGN_OR_RETURN(auto split, SplitAddr(addr));
  Controller* ctl = cluster_->ControllerFor(split.first);
  auto map = ctl->InitDataStructure(split.first, split.second, DsType::kCustom,
                                    initial_capacity_bytes, type_name);
  if (!map.ok()) {
    if (map.status().code() != StatusCode::kAlreadyExists) {
      return map.status();
    }
    map = ctl->GetPartitionMap(split.first, split.second);
    if (!map.ok()) {
      return map.status();
    }
  }
  if (map->type != DsType::kCustom || map->custom_type != type_name) {
    return FailedPrecondition("'" + addr + "' holds a " +
                              (map->type == DsType::kCustom ? map->custom_type
                                                            : DsTypeName(map->type)) +
                              ", not a " + type_name);
  }
  return std::make_unique<CustomDsClient>(cluster_, split.first, split.second,
                                          std::move(*map));
}

}  // namespace jiffy
