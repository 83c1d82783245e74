#include "src/client/kv_client.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "src/ds/kv_content.h"
#include "src/net/network.h"
#include "src/obs/trace.h"

namespace jiffy {

namespace {

// A batch operand with its key hashed once — the form the shard's hashed
// operators take — and that operand's key and request payload bytes.
HashedKey Hashed(std::string_view key) { return HashedKey(key); }
std::pair<HashedKey, std::string_view> Hashed(
    const std::pair<std::string_view, std::string_view>& kv) {
  return {HashedKey(kv.first), kv.second};
}
const HashedKey& KeyOf(const HashedKey& key) { return key; }
const HashedKey& KeyOf(const std::pair<HashedKey, std::string_view>& kv) {
  return kv.first;
}
size_t PayloadOf(const HashedKey& key) { return key.key.size(); }
size_t PayloadOf(const std::pair<HashedKey, std::string_view>& kv) {
  return kv.first.key.size() + kv.second.size();
}

// The status of an op's or item's outcome.
const Status& StatusOf(const Status& st) { return st; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}
template <typename Outcome>
bool IsStale(const Outcome& outcome) {
  return StatusOf(outcome).code() == StatusCode::kStaleMetadata;
}

double UsageOf(const KvShard& shard) {
  return static_cast<double>(shard.used_bytes()) /
         static_cast<double>(shard.capacity());
}

Status Livelock(const char* op_span) {
  return Unavailable(std::string(op_span) +
                     " livelock (stale answers past op_deadline)");
}

}  // namespace

template <typename R, typename Apply, typename Post>
R KvClient::ExecuteKey(const OpSpec& spec, const HashedKey& key, Apply&& apply,
                       Post&& post) {
  obs::TraceSpan span(spec.span, "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  const uint32_t slot = KvSlotOf(key, config().kv_hash_slots);
  TimeNs retry_start = -1;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0 &&
        RetriesExpired(retry_policy().op_deadline, &retry_start)) {
      return Livelock(spec.span);
    }
    BackoffRetry(attempt);
    const std::shared_ptr<const MapSnapshot> snap = Snapshot();
    const uint32_t e = snap->slot_entry[slot];
    if (e == MapSnapshot::kUnmapped) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    const PartitionEntry& entry = snap->map.entries[e];
    Block* block = Resolve(spec.read ? ReadTarget(entry) : entry.block);
    if (block == nullptr) {
      // The block's server failed: promote a chain replica and retry.
      JIFFY_RETURN_IF_ERROR(FailOver(entry));
      continue;
    }
    Status st;
    {
      Block::OpLock lock(*block, "kv.block_wait");
      JIFFY_TRACE_SPAN(spec.hold_span, "block");
      auto* shard = ContentAs<KvShard>(block->content());
      // Content reclaimed or remapped under us: refresh outside the lock.
      st = shard == nullptr ? StaleMetadata("kv content gone")
                            : apply(block, shard);
    }
    if (IsStale(st)) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    if (!spec.read && !st.ok()) {
      return st;  // A rejected write returns before any exchange.
    }
    if (std::optional<R> r = post(entry, block, st)) {
      op.Finish(StatusOf(*r));
      return std::move(*r);
    }
  }
}

template <typename Operand, typename Item, typename Apply, typename Post>
void KvClient::ExecuteGroups(const OpSpec& spec,
                             const std::vector<Operand>& operands,
                             std::vector<Item>* results, Apply&& apply,
                             Post&& post) {
  obs::TraceSpan span(spec.span, "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  // Hash each key once; every attempt routes and applies from these.
  using HashedOp = decltype(Hashed(operands.front()));
  std::vector<HashedOp> hashed;
  hashed.reserve(operands.size());
  for (const Operand& operand : operands) {
    hashed.push_back(Hashed(operand));
  }
  const uint32_t total_slots = config().kv_hash_slots;
  // Indices still awaiting a definitive result. A concurrent split only
  // re-pends the items whose slots moved — the rest of the batch is done.
  std::vector<size_t> pending(operands.size());
  std::iota(pending.begin(), pending.end(), 0);
  TimeNs retry_start = -1;
  // (entry index << 32 | operand index) per routed item: sorted, each
  // entry's group is one run, groups in entry order, items in operand order.
  std::vector<uint64_t> routed;
  std::vector<size_t> group;
  std::vector<HashedOp> ops;
  std::vector<Item> items;
  for (int attempt = 0; !pending.empty(); ++attempt) {
    if (attempt > 0 &&
        RetriesExpired(retry_policy().op_deadline, &retry_start)) {
      for (size_t i : pending) {
        (*results)[i] = Livelock(spec.span);
      }
      return;
    }
    BackoffRetry(attempt);
    const std::shared_ptr<const MapSnapshot> snap = Snapshot();
    bool need_refresh = false;
    std::vector<size_t> still_pending;
    routed.clear();
    for (size_t i : pending) {
      const uint32_t e =
          snap->slot_entry[KvSlotOf(KeyOf(hashed[i]), total_slots)];
      if (e == MapSnapshot::kUnmapped) {
        need_refresh = true;
        still_pending.push_back(i);
      } else {
        routed.push_back(uint64_t{e} << 32 | i);
      }
    }
    std::sort(routed.begin(), routed.end());
    for (size_t next = 0; next < routed.size();) {
      const uint32_t e = static_cast<uint32_t>(routed[next] >> 32);
      group.clear();
      ops.clear();
      size_t payload = 0;
      for (; next < routed.size() && (routed[next] >> 32) == e; ++next) {
        const size_t i = static_cast<uint32_t>(routed[next]);
        group.push_back(i);
        ops.push_back(hashed[i]);
        payload += PayloadOf(hashed[i]);
      }
      const PartitionEntry& entry = snap->map.entries[e];
      Block* block = Resolve(spec.read ? ReadTarget(entry) : entry.block);
      if (block == nullptr) {
        const Status fo = FailOver(entry);
        if (!fo.ok()) {
          for (size_t i : group) {
            (*results)[i] = fo;
          }
        } else {
          // FailOver already refreshed the map; just re-route this group.
          still_pending.insert(still_pending.end(), group.begin(), group.end());
        }
        continue;
      }
      bool content_gone = false;
      {
        Block::OpLock lock(*block, "kv.block_wait");
        JIFFY_TRACE_SPAN(spec.hold_span, "block");
        auto* shard = ContentAs<KvShard>(block->content());
        if (shard == nullptr) {
          content_gone = true;
        } else {
          block->CountOps(ops.size());
          apply(shard, ops, &items);
        }
      }
      if (content_gone) {
        need_refresh = true;
        still_pending.insert(still_pending.end(), group.begin(), group.end());
        continue;
      }
      const Status wire =
          post(entry, block, ops, BatchFrameBytes(ops.size(), payload), items);
      for (size_t g = 0; g < group.size(); ++g) {
        const size_t i = group[g];
        if (IsStale(items[g]) && (wire.ok() || spec.read)) {
          need_refresh = true;
          still_pending.push_back(i);
        } else if (wire.ok()) {
          (*results)[i] = std::move(items[g]);
        } else {
          (*results)[i] = wire;
        }
      }
    }
    pending = std::move(still_pending);
    if (!pending.empty() && need_refresh) {
      const Status rs = RefreshMapInternal();
      if (!rs.ok()) {
        for (size_t i : pending) {
          (*results)[i] = rs;
        }
        return;
      }
    }
  }
  if (std::all_of(results->begin(), results->end(), [&](const Item& r) {
        const Status& st = StatusOf(r);
        return st.ok() ||
               (spec.misses_ok && st.code() == StatusCode::kNotFound);
      })) {
    op.Success();
  }
}

Status KvClient::Put(std::string_view key, std::string_view value) {
  const HashedKey hk(key);
  double usage = 0.0;
  uint32_t slot_span = 0;
  return ExecuteKey<Status>(
      {.span = "kv.put", .hold_span = "block.kv_put"}, hk,
      [&](Block* block, KvShard* shard) {
        block->CountOp();
        const Status st = shard->Put(hk, value);
        usage = UsageOf(*shard);
        slot_span = shard->slot_span();
        return st;
      },
      [&](const PartitionEntry& entry, Block* block, const Status&) {
        // The put is applied server-side before the reply travels; a wire
        // failure that survives every retry is reported (at-least-once).
        JIFFY_RETURN_IF_ERROR(DataExchange(
            entry.block, FrameBytes(key.size() + value.size()), FrameBytes(0)));
        PropagateToReplicas<KvShard>(entry, key.size() + value.size(),
                                     [&](KvShard* s) { s->Put(hk, value); });
        MaybePersist(entry);
        Publish(kPutOp, key);
        // A failure to scale does not fail the put — the data is stored.
        MaybeFlagOverload(block, entry, usage, slot_span);
        return Status::Ok();
      });
}

Result<std::string> KvClient::Get(std::string_view key) {
  const HashedKey hk(key);
  std::string value;
  return ExecuteKey<Result<std::string>>(
      {.span = "kv.get", .hold_span = "block.kv_get", .read = true}, hk,
      [&](Block* block, KvShard* shard) {
        block->CountOp();
        // The shard returns a view into arena memory; materialize it here,
        // still under the block mutex — the single copy this read pays.
        Result<std::string_view> rv = shard->Get(hk);
        if (!rv.ok()) {
          return rv.status();
        }
        CopyMeter::Add(rv->size());
        value.assign(rv->data(), rv->size());
        return Status::Ok();
      },
      [&](const PartitionEntry& entry, Block*,
          const Status& st) -> std::optional<Result<std::string>> {
        if (!st.ok()) {  // A miss still travels as an empty reply.
          DataExchange(ReadTarget(entry), FrameBytes(key.size()),
                       FrameBytes(0));
          return st;
        }
        // Reads are idempotent: a reply lost beyond the retry budget simply
        // re-executes the whole read.
        if (!DataExchange(ReadTarget(entry), FrameBytes(key.size()),
                          FrameBytes(value.size()))
                 .ok()) {
          return std::nullopt;
        }
        return std::move(value);
      });
}

Status KvClient::Delete(std::string_view key) {
  const HashedKey hk(key);
  double usage = 0.0;
  return ExecuteKey<Status>(
      {.span = "kv.delete", .hold_span = "block.kv_delete"}, hk,
      [&](Block* block, KvShard* shard) {
        block->CountOp();
        const Status st = shard->Delete(hk);
        usage = UsageOf(*shard);
        return st;
      },
      [&](const PartitionEntry& entry, Block* block, const Status&) {
        JIFFY_RETURN_IF_ERROR(
            DataExchange(entry.block, FrameBytes(key.size()), FrameBytes(0)));
        PropagateToReplicas<KvShard>(entry, key.size(),
                                     [&](KvShard* s) { s->Delete(hk); });
        MaybePersist(entry);
        Publish(kDeleteOp, key);
        MaybeFlagUnderload(block, entry, usage);
        return Status::Ok();
      });
}

Status KvClient::Accumulate(std::string_view key, std::string_view update,
                            const MergeFn& merge) {
  const HashedKey hk(key);
  double usage = 0.0;
  uint32_t slot_span = 0;
  std::string merged;
  return ExecuteKey<Status>(
      {.span = "kv.accumulate", .hold_span = "block.kv_accumulate"}, hk,
      [&](Block* block, KvShard* shard) {
        if (!shard->OwnsKey(hk)) {
          return StaleMetadata("slot moved");
        }
        block->CountOp();
        // The old value stays a view for the merge callback — the only copy
        // is the arena copy-in of the merged result inside Put.
        Result<std::string_view> old = shard->Get(hk);
        merged = merge(old.ok() ? *old : std::string_view(), update);
        const Status st = shard->Put(hk, merged);
        usage = UsageOf(*shard);
        slot_span = shard->slot_span();
        return st;
      },
      [&](const PartitionEntry& entry, Block* block, const Status&) {
        JIFFY_RETURN_IF_ERROR(
            DataExchange(entry.block, FrameBytes(key.size() + update.size()),
                         FrameBytes(0)));
        // The primary resolved the accumulator; replicas receive the merged
        // value so the chain stays byte-identical.
        PropagateToReplicas<KvShard>(entry, key.size() + merged.size(),
                                     [&](KvShard* s) { s->Put(hk, merged); });
        MaybePersist(entry);
        Publish(kPutOp, key);
        MaybeFlagOverload(block, entry, usage, slot_span);
        return Status::Ok();
      });
}

Result<bool> KvClient::Exists(std::string_view key) {
  auto r = Get(key);
  if (r.ok()) {
    return true;
  }
  if (r.status().code() == StatusCode::kNotFound) {
    return false;
  }
  return r.status();
}

std::vector<Status> KvClient::MultiPut(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<std::pair<std::string_view, std::string_view>> views;
  views.reserve(pairs.size());
  for (const auto& [k, v] : pairs) {
    views.emplace_back(k, v);
  }
  return MultiPut(views);
}

std::vector<Status> KvClient::MultiPut(
    const std::vector<std::pair<std::string_view, std::string_view>>& pairs) {
  std::vector<Status> statuses(pairs.size(), Status::Ok());
  double usage = 0.0;
  uint32_t slot_span = 0;
  ExecuteGroups(
      {.span = "kv.multi_put", .hold_span = "block.kv_multi_put"}, pairs,
      &statuses,
      [&](KvShard* shard, const auto& ops, std::vector<Status>* items) {
        shard->MultiPut(ops, items);
        usage = UsageOf(*shard);
        slot_span = shard->slot_span();
      },
      [&](const PartitionEntry& entry, Block* block, const auto& ops,
          size_t req_bytes, const std::vector<Status>& items) {
        // One coalesced exchange for the whole group regardless of outcome:
        // the server saw and answered every item. A wire failure that
        // survives every retry loses the per-item reply, so the whole group
        // reports it (the puts themselves were applied — at-least-once).
        JIFFY_RETURN_IF_ERROR(DataExchangeBatch(
            entry.block, ops.size(), req_bytes,
            BatchFrameBytes(ops.size(), 0)));
        if (ReplayApplied(entry, ops, items, kPutOp,
                          [](KvShard* s, const auto& kv) {
                            s->Put(kv.first, kv.second);
                          })) {
          MaybeFlagOverload(block, entry, usage, slot_span);
        }
        return Status::Ok();
      });
  return statuses;
}

WireValues KvClient::MultiGet(const std::vector<std::string>& keys) {
  std::vector<std::string_view> views(keys.begin(), keys.end());
  return MultiGet(views);
}

WireValues KvClient::MultiGet(const std::vector<std::string_view>& keys) {
  // The pinned read returns arena views; the owning shape pays exactly one
  // buffer for the whole batch — hits are packed back-to-back the way a
  // response frame's payload section lays them out — instead of one
  // std::string materialization per value.
  PinnedValues pinned = MultiGetPinned(keys);
  WireValues out;
  size_t total = 0;
  for (const auto& r : pinned.values) {
    if (r.ok()) {
      total += r.value().size();
    }
  }
  out.bufs.emplace_back();
  std::string& buf = out.bufs.back();
  buf.reserve(total);  // Exact: views below must survive every append.
  out.values.reserve(pinned.values.size());
  for (const auto& r : pinned.values) {
    if (r.ok()) {
      const size_t at = buf.size();
      buf.append(r.value());
      CopyMeter::Add(r.value().size());
      out.values.emplace_back(
          std::string_view(buf.data() + at, r.value().size()));
    } else {
      out.values.emplace_back(r.status());
    }
  }
  return out;
}

KvClient::PinnedValues KvClient::MultiGetPinned(
    const std::vector<std::string_view>& keys) {
  PinnedValues out;
  out.values.assign(keys.size(), NotFound(""));
  ExecuteGroups(
      {.span = "kv.multi_get",
       .hold_span = "block.kv_multi_get",
       .read = true,
       .misses_ok = true},
      keys, &out.values,
      [&](KvShard* shard, const auto& ops,
          std::vector<Result<std::string_view>>* items) {
        shard->MultiGet(ops, items);
        // Pin while the mutex still protects the arena: from here the views
        // stay valid even against a concurrent chunked migration or
        // compaction (DESIGN.md §11).
        out.pins.emplace_back(shard->arena());
      },
      [&](const PartitionEntry& entry, Block*, const auto& ops,
          size_t req_bytes, const std::vector<Result<std::string_view>>& items) {
        size_t resp_payload = 0;  // Frame + 8 B/item added by BatchFrameBytes.
        for (const Result<std::string_view>& r : items) {
          if (r.ok()) {
            resp_payload += r->size();
          }
        }
        return DataExchangeBatch(ReadTarget(entry), ops.size(), req_bytes,
                                 BatchFrameBytes(ops.size(), resp_payload));
      });
  return out;
}

std::vector<Status> KvClient::MultiDelete(const std::vector<std::string>& keys) {
  std::vector<std::string_view> views(keys.begin(), keys.end());
  return MultiDelete(views);
}

std::vector<Status> KvClient::MultiDelete(
    const std::vector<std::string_view>& keys) {
  std::vector<Status> statuses(keys.size(), Status::Ok());
  double usage = 0.0;
  ExecuteGroups(
      {.span = "kv.multi_delete",
       .hold_span = "block.kv_multi_delete",
       .misses_ok = true},
      keys, &statuses,
      [&](KvShard* shard, const auto& ops, std::vector<Status>* items) {
        shard->MultiDelete(ops, items);
        usage = UsageOf(*shard);
      },
      [&](const PartitionEntry& entry, Block* block, const auto& ops,
          size_t req_bytes, const std::vector<Status>& items) {
        JIFFY_RETURN_IF_ERROR(DataExchangeBatch(
            entry.block, ops.size(), req_bytes,
            BatchFrameBytes(ops.size(), 0)));
        if (ReplayApplied(entry, ops, items, kDeleteOp,
                          [](KvShard* s, const HashedKey& key) {
                            s->Delete(key);
                          })) {
          MaybeFlagUnderload(block, entry, usage);
        }
        return Status::Ok();
      });
  return statuses;
}

template <typename Op, typename Replay>
bool KvClient::ReplayApplied(const PartitionEntry& entry,
                             const std::vector<Op>& ops,
                             const std::vector<Status>& items,
                             const char* publish_op, Replay&& replay) {
  std::vector<size_t> applied;
  size_t applied_bytes = 0;
  for (size_t g = 0; g < ops.size(); ++g) {
    if (items[g].ok()) {
      applied.push_back(g);
      applied_bytes += PayloadOf(ops[g]);
    }
  }
  if (applied.empty()) {
    return false;
  }
  PropagateBatchToReplicas<KvShard>(entry, applied.size(), applied_bytes,
                                    [&](KvShard* s) {
                                      for (size_t g : applied) {
                                        replay(s, ops[g]);
                                      }
                                    });
  MaybePersist(entry);
  for (size_t g : applied) {
    Publish(publish_op, KeyOf(ops[g]).key);
  }
  return true;
}

void KvClient::MaybeFlagOverload(Block* block, const PartitionEntry& entry,
                                 double usage, uint32_t slot_span) {
  if (usage >= config().repartition_high_threshold && slot_span > 1 &&
      entry.replicas.empty()) {
    FlagPressure(block, entry.block, DsType::kKvStore,
                 Repartitioner::Pressure::kOverload);
  }
}

void KvClient::MaybeFlagUnderload(Block* block, const PartitionEntry& entry,
                                  double usage) {
  if (usage <= config().repartition_low_threshold && map_entry_count() > 1 &&
      entry.replicas.empty()) {
    FlagPressure(block, entry.block, DsType::kKvStore,
                 Repartitioner::Pressure::kUnderload);
  }
}

Result<size_t> KvClient::CountPairs() {
  JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
  const std::shared_ptr<const MapSnapshot> snap = Snapshot();
  size_t total = 0;
  for (const auto& e : snap->map.entries) {
    Block* block = Resolve(e.block);
    if (block == nullptr) {
      continue;
    }
    Block::OpLock lock(*block);
    auto* shard = ContentAs<KvShard>(block->content());
    if (shard != nullptr) {
      total += shard->pair_count();
    }
  }
  return total;
}

}  // namespace jiffy
