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

constexpr size_t kNoEntry = static_cast<size_t>(-1);

// Index of the map entry owning `slot`; kNoEntry when the map is stale.
size_t EntryIndexForSlot(const PartitionMap& map, uint32_t slot) {
  for (size_t e = 0; e < map.entries.size(); ++e) {
    if (slot >= map.entries[e].lo && slot < map.entries[e].hi) {
      return e;
    }
  }
  return kNoEntry;
}

// A batch operand's key and its request payload bytes.
std::string_view KeyOf(std::string_view key) { return key; }
std::string_view KeyOf(const std::pair<std::string_view, std::string_view>& kv) {
  return kv.first;
}
size_t PayloadOf(std::string_view key) { return key.size(); }
size_t PayloadOf(const std::pair<std::string_view, std::string_view>& kv) {
  return kv.first.size() + kv.second.size();
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

bool KvClient::RouteSlot(uint32_t slot, PartitionEntry* out) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  const size_t e = EntryIndexForSlot(map_, slot);
  if (e == kNoEntry) {
    return false;
  }
  *out = map_.entries[e];
  return true;
}

template <typename R, typename Apply, typename Post>
R KvClient::ExecuteKey(const OpSpec& spec, std::string_view key, Apply&& apply,
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
    PartitionEntry entry;
    if (!RouteSlot(slot, &entry)) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
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
  std::vector<uint32_t> slots(operands.size());
  for (size_t i = 0; i < operands.size(); ++i) {
    slots[i] = KvSlotOf(KeyOf(operands[i]), config().kv_hash_slots);
  }
  // Indices still awaiting a definitive result. A concurrent split only
  // re-pends the items whose slots moved — the rest of the batch is done.
  std::vector<size_t> pending(operands.size());
  std::iota(pending.begin(), pending.end(), 0);
  TimeNs retry_start = -1;
  std::vector<Operand> ops;
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
    const PartitionMap map = CachedMap();
    bool need_refresh = false;
    std::vector<std::vector<size_t>> groups(map.entries.size());
    std::vector<size_t> still_pending;
    for (size_t i : pending) {
      const size_t e = EntryIndexForSlot(map, slots[i]);
      if (e == kNoEntry) {
        need_refresh = true;
        still_pending.push_back(i);
      } else {
        groups[e].push_back(i);
      }
    }
    for (size_t e = 0; e < groups.size(); ++e) {
      const std::vector<size_t>& group = groups[e];
      if (group.empty()) {
        continue;
      }
      const PartitionEntry& entry = map.entries[e];
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
      ops.clear();
      size_t payload = 0;
      for (size_t i : group) {
        ops.push_back(operands[i]);
        payload += PayloadOf(operands[i]);
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
          post(entry, block, group, BatchFrameBytes(ops.size(), payload), items);
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
  double usage = 0.0;
  uint32_t slot_span = 0;
  return ExecuteKey<Status>(
      {.span = "kv.put", .hold_span = "block.kv_put"}, key,
      [&](Block* block, KvShard* shard) {
        block->CountOp();
        const Status st = shard->Put(key, value);
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
                                     [&](KvShard* s) { s->Put(key, value); });
        MaybePersist(entry);
        Publish(kPutOp, key);
        // A failure to scale does not fail the put — the data is stored.
        MaybeFlagOverload(block, entry, usage, slot_span);
        return Status::Ok();
      });
}

Result<std::string> KvClient::Get(std::string_view key) {
  std::string value;
  return ExecuteKey<Result<std::string>>(
      {.span = "kv.get", .hold_span = "block.kv_get", .read = true}, key,
      [&](Block* block, KvShard* shard) {
        block->CountOp();
        // The shard returns a view into arena memory; materialize it here,
        // still under the block mutex — the single copy this read pays.
        Result<std::string_view> rv = shard->Get(key);
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
  double usage = 0.0;
  return ExecuteKey<Status>(
      {.span = "kv.delete", .hold_span = "block.kv_delete"}, key,
      [&](Block* block, KvShard* shard) {
        block->CountOp();
        const Status st = shard->Delete(key);
        usage = UsageOf(*shard);
        return st;
      },
      [&](const PartitionEntry& entry, Block* block, const Status&) {
        JIFFY_RETURN_IF_ERROR(
            DataExchange(entry.block, FrameBytes(key.size()), FrameBytes(0)));
        PropagateToReplicas<KvShard>(entry, key.size(),
                                     [&](KvShard* s) { s->Delete(key); });
        MaybePersist(entry);
        Publish(kDeleteOp, key);
        MaybeFlagUnderload(block, entry, usage);
        return Status::Ok();
      });
}

Status KvClient::Accumulate(std::string_view key, std::string_view update,
                            const MergeFn& merge) {
  double usage = 0.0;
  uint32_t slot_span = 0;
  std::string merged;
  return ExecuteKey<Status>(
      {.span = "kv.accumulate", .hold_span = "block.kv_accumulate"}, key,
      [&](Block* block, KvShard* shard) {
        if (!shard->OwnsKey(key)) {
          return StaleMetadata("slot moved");
        }
        block->CountOp();
        // The old value stays a view for the merge callback — the only copy
        // is the arena copy-in of the merged result inside Put.
        Result<std::string_view> old = shard->Get(key);
        merged = merge(old.ok() ? *old : std::string_view(), update);
        const Status st = shard->Put(key, merged);
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
                                     [&](KvShard* s) { s->Put(key, merged); });
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
      [&](const PartitionEntry& entry, Block* block,
          const std::vector<size_t>& group, size_t req_bytes,
          const std::vector<Status>& items) {
        // One coalesced exchange for the whole group regardless of outcome:
        // the server saw and answered every item. A wire failure that
        // survives every retry loses the per-item reply, so the whole group
        // reports it (the puts themselves were applied — at-least-once).
        JIFFY_RETURN_IF_ERROR(DataExchangeBatch(
            entry.block, group.size(), req_bytes,
            BatchFrameBytes(group.size(), 0)));
        if (ReplayApplied(entry, pairs, group, items, kPutOp,
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
      [&](const PartitionEntry& entry, Block*, const std::vector<size_t>& group,
          size_t req_bytes, const std::vector<Result<std::string_view>>& items) {
        size_t resp_payload = 0;  // Frame + 8 B/item added by BatchFrameBytes.
        for (const Result<std::string_view>& r : items) {
          if (r.ok()) {
            resp_payload += r->size();
          }
        }
        return DataExchangeBatch(ReadTarget(entry), group.size(), req_bytes,
                                 BatchFrameBytes(group.size(), resp_payload));
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
      [&](const PartitionEntry& entry, Block* block,
          const std::vector<size_t>& group, size_t req_bytes,
          const std::vector<Status>& items) {
        JIFFY_RETURN_IF_ERROR(DataExchangeBatch(
            entry.block, group.size(), req_bytes,
            BatchFrameBytes(group.size(), 0)));
        if (ReplayApplied(entry, keys, group, items, kDeleteOp,
                          [](KvShard* s, std::string_view key) {
                            s->Delete(key);
                          })) {
          MaybeFlagUnderload(block, entry, usage);
        }
        return Status::Ok();
      });
  return statuses;
}

template <typename Operand, typename Replay>
bool KvClient::ReplayApplied(const PartitionEntry& entry,
                             const std::vector<Operand>& operands,
                             const std::vector<size_t>& group,
                             const std::vector<Status>& items,
                             const char* publish_op, Replay&& replay) {
  std::vector<size_t> applied;
  size_t applied_bytes = 0;
  for (size_t g = 0; g < group.size(); ++g) {
    if (items[g].ok()) {
      applied.push_back(group[g]);
      applied_bytes += PayloadOf(operands[group[g]]);
    }
  }
  if (applied.empty()) {
    return false;
  }
  PropagateBatchToReplicas<KvShard>(entry, applied.size(), applied_bytes,
                                    [&](KvShard* s) {
                                      for (size_t i : applied) {
                                        replay(s, operands[i]);
                                      }
                                    });
  MaybePersist(entry);
  for (size_t i : applied) {
    Publish(publish_op, KeyOf(operands[i]));
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
  PartitionMap map = CachedMap();
  size_t total = 0;
  for (const auto& e : map.entries) {
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
