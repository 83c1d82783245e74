#include "src/ds/kv_content.h"

#include "src/common/hash.h"
#include "src/common/serde.h"

namespace jiffy {

namespace {

// One outcome per batch item, aligned with the input.
template <typename Op, typename Out, typename Fn>
void ApplyEach(const std::vector<Op>& ops, std::vector<Out>* out, Fn&& fn) {
  out->clear();
  out->reserve(ops.size());
  for (const Op& op : ops) {
    out->push_back(fn(op));
  }
}

}  // namespace

uint32_t KvSlotOf(std::string_view key, uint32_t total_slots) {
  return KvSlotOf(HashedKey(key), total_slots);
}

KvShard::KvShard(size_t capacity, uint32_t slot_lo, uint32_t slot_hi,
                 uint32_t total_slots)
    : capacity_(capacity),
      slot_lo_(slot_lo),
      slot_hi_(slot_hi),
      total_slots_(total_slots) {}

std::string KvShard::Serialize() const {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(map_.size()));
  map_.ForEach([&out](std::string_view k, std::string_view v) {
    PutString(&out, k);
    PutString(&out, v);
  });
  return out;
}

Result<std::unique_ptr<KvShard>> KvShard::Deserialize(
    size_t capacity, uint32_t slot_lo, uint32_t slot_hi, uint32_t total_slots,
    std::string_view payload) {
  SerdeReader reader(payload);
  auto shard =
      std::make_unique<KvShard>(capacity, slot_lo, slot_hi, total_slots);
  JIFFY_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  for (uint32_t i = 0; i < count; ++i) {
    JIFFY_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
    JIFFY_ASSIGN_OR_RETURN(std::string value, reader.ReadString());
    JIFFY_RETURN_IF_ERROR(shard->Put(key, value));
  }
  return shard;
}

Status KvShard::Put(const HashedKey& key, std::string_view value) {
  const uint32_t slot = KvSlotOf(key, total_slots_);
  if (!OwnsSlot(slot)) {
    return StaleMetadata("slot " + std::to_string(slot) +
                         " not owned by this shard");
  }
  const std::optional<size_t> old = map_.Put(key, value);
  if (old.has_value()) {
    used_bytes_ += value.size();
    used_bytes_ -= *old;
  } else {
    used_bytes_ += key.key.size() + value.size() + kPerPairOverhead;
  }
  NoteDirty(key.key, slot);
  MaybeCompact();
  return Status::Ok();
}

Result<std::string_view> KvShard::Get(const HashedKey& key) const {
  const uint32_t slot = KvSlotOf(key, total_slots_);
  if (!OwnsSlot(slot)) {
    return StaleMetadata("slot " + std::to_string(slot) +
                         " not owned by this shard");
  }
  std::optional<std::string_view> v = map_.Get(key);
  if (!v.has_value()) {
    return NotFound("no such key");
  }
  return *v;
}

Status KvShard::Delete(const HashedKey& key) {
  const uint32_t slot = KvSlotOf(key, total_slots_);
  if (!OwnsSlot(slot)) {
    return StaleMetadata("slot " + std::to_string(slot) +
                         " not owned by this shard");
  }
  const std::optional<size_t> erased = map_.Erase(key);
  if (!erased.has_value()) {
    return NotFound("no such key");
  }
  used_bytes_ -= *erased + kPerPairOverhead;
  NoteDirty(key.key, slot);
  MaybeCompact();
  return Status::Ok();
}

void KvShard::MultiPut(
    const std::vector<std::pair<HashedKey, std::string_view>>& pairs,
    std::vector<Status>* statuses) {
  ApplyEach(pairs, statuses,
            [this](const auto& kv) { return Put(kv.first, kv.second); });
}

void KvShard::MultiGet(const std::vector<HashedKey>& keys,
                       std::vector<Result<std::string_view>>* out) const {
  ApplyEach(keys, out, [this](const HashedKey& key) { return Get(key); });
}

void KvShard::MultiDelete(const std::vector<HashedKey>& keys,
                          std::vector<Status>* statuses) {
  ApplyEach(keys, statuses,
            [this](const HashedKey& key) { return Delete(key); });
}

void KvShard::MultiPut(
    const std::vector<std::pair<std::string_view, std::string_view>>& pairs,
    std::vector<Status>* statuses) {
  ApplyEach(pairs, statuses,
            [this](const auto& kv) { return Put(kv.first, kv.second); });
}

void KvShard::MultiGet(const std::vector<std::string_view>& keys,
                       std::vector<Result<std::string_view>>* out) const {
  ApplyEach(keys, out, [this](std::string_view key) { return Get(key); });
}

void KvShard::MultiDelete(const std::vector<std::string_view>& keys,
                          std::vector<Status>* statuses) {
  ApplyEach(keys, statuses,
            [this](std::string_view key) { return Delete(key); });
}

size_t KvShard::SplitOff(
    uint32_t from_slot, std::vector<std::pair<std::string, std::string>>* out) {
  const uint32_t total = total_slots_;
  size_t moved_bytes = 0;
  // Upper bound — a split typically moves about half the pairs, but one
  // reserve beats log2(moved) relocations of string pairs.
  out->reserve(out->size() + map_.size());
  const size_t moved = map_.ExtractIf(
      [&](const HashedKey& key) {
        const uint32_t slot = KvSlotOf(key, total);
        return slot >= from_slot && slot < slot_hi_;
      },
      [&](std::string_view k, std::string_view v) {
        moved_bytes += k.size() + v.size() + kPerPairOverhead;
        // Cross-block move buffer owns its bytes: the source arena compacts
        // after the split, so the views cannot travel.
        CopyMeter::Add(k.size() + v.size());
        out->emplace_back(std::string(k), std::string(v));
      });
  used_bytes_ -= moved_bytes;
  slot_hi_ = from_slot;
  MaybeCompact();
  return moved;
}

size_t KvShard::SplitOffLower(
    uint32_t up_to_slot,
    std::vector<std::pair<std::string, std::string>>* out) {
  const uint32_t total = total_slots_;
  size_t moved_bytes = 0;
  out->reserve(out->size() + map_.size());
  const size_t moved = map_.ExtractIf(
      [&](const HashedKey& key) {
        const uint32_t slot = KvSlotOf(key, total);
        return slot >= slot_lo_ && slot < up_to_slot;
      },
      [&](std::string_view k, std::string_view v) {
        moved_bytes += k.size() + v.size() + kPerPairOverhead;
        CopyMeter::Add(k.size() + v.size());
        out->emplace_back(std::string(k), std::string(v));
      });
  used_bytes_ -= moved_bytes;
  slot_lo_ = up_to_slot;
  MaybeCompact();
  return moved;
}

Status KvShard::BeginMigration(uint32_t from_slot) {
  if (migrating_) {
    return FailedPrecondition("shard migration already in flight");
  }
  if (from_slot < slot_lo_ || from_slot > slot_hi_) {
    return InvalidArgument("migration start slot outside owned range");
  }
  migrating_ = true;
  migrate_from_ = from_slot;
  snapshot_keys_.clear();
  snapshot_keys_.reserve(map_.size());
  map_.ForEachHashed([&](const HashedKey& k, std::string_view) {
    const uint32_t slot = KvSlotOf(k, total_slots_);
    if (slot >= from_slot && slot < slot_hi_) {
      snapshot_keys_.emplace_back(k.key, k.hash);
    }
  });
  dirty_.clear();
  return Status::Ok();
}

bool KvShard::SplitOffChunk(
    size_t* cursor, size_t max_bytes,
    std::vector<std::pair<std::string, std::string>>* out) {
  size_t bytes = 0;
  while (*cursor < snapshot_keys_.size() && bytes < max_bytes) {
    const auto& [key, hash] = snapshot_keys_[*cursor];
    ++*cursor;
    std::optional<std::string_view> value = map_.Get(HashedKey(key, hash));
    if (!value.has_value()) {
      continue;  // Deleted since the snapshot; nothing to copy.
    }
    bytes += key.size() + value->size() + kPerPairOverhead;
    CopyMeter::Add(value->size());
    out->emplace_back(key, std::string(*value));
  }
  return *cursor >= snapshot_keys_.size();
}

std::vector<std::string> KvShard::TakeDirtyKeys() {
  std::vector<std::string> keys;
  keys.reserve(dirty_.size());
  for (auto it = dirty_.begin(); it != dirty_.end();) {
    keys.push_back(std::move(dirty_.extract(it++).value()));
  }
  return keys;
}

size_t KvShard::FinishMigration() {
  const size_t dropped = DropRange(migrate_from_, slot_hi_);
  slot_hi_ = migrate_from_;
  AbortMigration();  // Clears snapshot + dirty state.
  // The migrated range's bytes are all garbage now; copying the survivors
  // into a new generation frees the old one (once pinned readers finish).
  MaybeCompact();
  return dropped;
}

void KvShard::AbortMigration() {
  migrating_ = false;
  snapshot_keys_.clear();
  snapshot_keys_.shrink_to_fit();
  dirty_.clear();
}

Status KvShard::MoveInPairs(
    uint32_t lo, uint32_t hi,
    std::vector<std::pair<std::string, std::string>>* pairs) {
  std::vector<uint64_t> hashes;
  hashes.reserve(pairs->size());
  for (const auto& [k, v] : *pairs) {
    const HashedKey key(k);
    const uint32_t slot = KvSlotOf(key, total_slots_);
    if (slot < lo || slot >= hi) {
      return InvalidArgument("migrated pair in slot " + std::to_string(slot) +
                             " outside range [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + ")");
    }
    hashes.push_back(key.hash);
  }
  for (size_t i = 0; i < pairs->size(); ++i) {
    const auto& [k, v] = (*pairs)[i];
    const std::optional<size_t> old = map_.Put(HashedKey(k, hashes[i]), v);
    if (old.has_value()) {
      used_bytes_ += v.size();
      used_bytes_ -= *old;
    } else {
      used_bytes_ += k.size() + v.size() + kPerPairOverhead;
    }
  }
  pairs->clear();
  return Status::Ok();
}

bool KvShard::EraseMigrated(std::string_view key) {
  const std::optional<size_t> erased = map_.Erase(key);
  if (!erased.has_value()) {
    return false;
  }
  used_bytes_ -= *erased + kPerPairOverhead;
  return true;
}

size_t KvShard::DropRange(uint32_t lo, uint32_t hi) {
  size_t dropped_bytes = 0;
  const size_t dropped = map_.ExtractIf(
      [&](const HashedKey& key) {
        const uint32_t slot = KvSlotOf(key, total_slots_);
        return slot >= lo && slot < hi;
      },
      [&](std::string_view k, std::string_view v) {
        dropped_bytes += k.size() + v.size() + kPerPairOverhead;
      });
  used_bytes_ -= dropped_bytes;
  return dropped;
}

Status KvShard::ExtendRange(uint32_t other_lo, uint32_t other_hi) {
  if (other_hi == slot_lo_) {
    slot_lo_ = other_lo;
  } else if (other_lo == slot_hi_) {
    slot_hi_ = other_hi;
  } else {
    return InvalidArgument("extended slot range is not adjacent");
  }
  return Status::Ok();
}

void KvShard::NoteDirty(std::string_view key, uint32_t slot) {
  if (migrating_ && slot >= migrate_from_ && slot < slot_hi_) {
    dirty_.insert(std::string(key));
  }
}

void KvShard::MaybeCompact() {
  // Threshold: more garbage than live data and at least one chunk's worth
  // of stored bytes, so small shards never churn. Skipped mid-migration —
  // see the header comment.
  if (migrating_) {
    return;
  }
  const auto& arena = map_.arena();
  if (arena->stored_bytes() >= SlabArena::kDefaultChunkBytes &&
      map_.GarbageRatio() > 0.5) {
    map_.CompactArena();
  }
}

}  // namespace jiffy
