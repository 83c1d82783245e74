#include "src/ds/cuckoo_hash.h"

#include <bit>
#include <cstring>
#include <utility>

#include "src/common/hash.h"

namespace jiffy {

CuckooHashMap::CuckooHashMap(size_t initial_buckets) {
  size_t n = std::bit_ceil(initial_buckets < 2 ? size_t{2} : initial_buckets);
  buckets_.resize(n);
  mask_ = n - 1;
}

uint32_t CuckooHashMap::Tag(uint64_t hash) {
  // Fingerprint from the high hash bits (the first bucket index uses the
  // low bits); 0 is reserved for "empty slot".
  const uint32_t t = static_cast<uint32_t>(hash >> 32);
  return t == 0 ? 1 : t;
}

const CuckooHashMap::Slot* CuckooHashMap::FindSlot(
    const HashedKey& key) const {
  const uint32_t tag = Tag(key.hash);
  for (const size_t idx : {Index1(key.hash), Index2(key.hash)}) {
    for (const Slot& s : buckets_[idx].slots) {
      // Tag filter first: a miss costs one 32-byte bucket line, no key
      // bytes touched unless a fingerprint collides.
      if (s.tag == tag && records_[s.rec].key() == key.key) {
        return &s;
      }
    }
  }
  return nullptr;
}

CuckooHashMap::Slot* CuckooHashMap::FindSlotMutable(const HashedKey& key) {
  return const_cast<Slot*>(FindSlot(key));
}

void CuckooHashMap::StoreRecord(std::string_view key, std::string_view value,
                                Record* rec) {
  // One contiguous [key][value] arena allocation: the single data-plane
  // copy-in. Stored bytes are never mutated afterwards (pinned readers may
  // hold views), so an overwrite comes back here with a fresh allocation.
  char* dst = arena_->Alloc(key.size() + value.size());
  if (!key.empty()) {
    std::memcpy(dst, key.data(), key.size());
  }
  if (!value.empty()) {
    std::memcpy(dst + key.size(), value.data(), value.size());
  }
  CopyMeter::Add(key.size() + value.size());
  rec->data = dst;
  rec->klen = static_cast<uint32_t>(key.size());
  rec->vlen = static_cast<uint32_t>(value.size());
  rec->cap = static_cast<uint32_t>((key.size() + value.size() + 7) & ~size_t{7});
}

uint32_t CuckooHashMap::AllocRecord(const HashedKey& key,
                                    std::string_view value) {
  uint32_t idx;
  if (!free_recs_.empty()) {
    idx = free_recs_.back();
    free_recs_.pop_back();
  } else {
    idx = static_cast<uint32_t>(records_.size());
    records_.emplace_back();
  }
  records_[idx].hash = key.hash;
  StoreRecord(key.key, value, &records_[idx]);
  return idx;
}

void CuckooHashMap::FreeRecord(uint32_t rec) {
  Record& r = records_[rec];
  arena_->NoteGarbage(r.klen + r.vlen);
  r = Record{};
  free_recs_.push_back(rec);
}

std::optional<size_t> CuckooHashMap::Put(const HashedKey& key,
                                         std::string_view value) {
  if (Slot* s = FindSlotMutable(key); s != nullptr) {
    Record& r = records_[s->rec];
    const size_t old_size = r.vlen;
    // In-place when no reader can observe the mutation: pins are only ever
    // taken under the block mutex the writer holds, so pins()==0 here means
    // no view of these bytes outlives the current lock hold. Steady-state
    // overwrite churn then recycles the same allocation with zero garbage.
    if (arena_->pins() == 0 && key.key.size() + value.size() <= r.cap) {
      if (!value.empty()) {
        std::memcpy(const_cast<char*>(r.data) + r.klen, value.data(),
                    value.size());
      }
      CopyMeter::Add(value.size());
      arena_->AdjustStored(static_cast<int64_t>(value.size()) -
                           static_cast<int64_t>(r.vlen));
      r.vlen = static_cast<uint32_t>(value.size());
      return old_size;
    }
    // Pinned readers may still be looking at the old bytes: append a fresh
    // record and leave the old ones as garbage until compaction.
    arena_->NoteGarbage(r.klen + r.vlen);
    StoreRecord(key.key, value, &r);
    return old_size;
  }
  Insert(Slot{Tag(key.hash), AllocRecord(key, value)});
  size_++;
  return std::nullopt;
}

void CuckooHashMap::Insert(Slot s) {
  // Growing never unplaces a resident (see Grow), so the one slot a failed
  // walk left homeless simply retries in the doubled table.
  for (std::optional<Slot> homeless = TryPlace(s); homeless.has_value();
       homeless = TryPlace(*homeless)) {
    Grow();
  }
}

std::optional<CuckooHashMap::Slot> CuckooHashMap::TryPlace(Slot s) {
  // Try an empty slot in either candidate bucket.
  const uint64_t hash = records_[s.rec].hash;
  for (const size_t idx : {Index1(hash), Index2(hash)}) {
    for (Slot& slot : buckets_[idx].slots) {
      if (slot.tag == 0) {
        slot = s;
        return std::nullopt;
      }
    }
  }
  // Both full: random-walk eviction. Each kick swaps two 8-byte slots;
  // record bytes never move.
  Slot cur = s;
  for (int kick = 0; kick < kMaxKicks; ++kick) {
    const uint64_t cur_hash = records_[cur.rec].hash;
    kick_seed_ = Mix64(kick_seed_ + static_cast<uint64_t>(kick));
    const size_t idx = (kick_seed_ & 1) ? Index2(cur_hash) : Index1(cur_hash);
    const int victim_slot =
        static_cast<int>((kick_seed_ >> 1) % kSlotsPerBucket);
    Slot& victim = buckets_[idx].slots[victim_slot];
    if (victim.tag == 0) {
      victim = cur;
      return std::nullopt;
    }
    std::swap(victim, cur);
    // Move the displaced slot toward its alternate bucket next round.
    const uint64_t kicked_hash = records_[cur.rec].hash;
    for (const size_t alt : {Index1(kicked_hash), Index2(kicked_hash)}) {
      if (alt == idx) {
        continue;
      }
      for (Slot& slot : buckets_[alt].slots) {
        if (slot.tag == 0) {
          slot = cur;
          return std::nullopt;
        }
      }
    }
  }
  return cur;
}

void CuckooHashMap::Grow() {
  // Both bucket indexes are a fixed 64-bit value masked to the table size,
  // so doubling adds one bit to each: a resident of bucket b lands in b or
  // b + old_n, and the two halves share at most b's four slots. Every set of
  // entries that fits a table therefore fits a table twice its size, and
  // this move needs no kicks and cannot fail.
  const size_t old_n = buckets_.size();
  const std::vector<Bucket> old =
      std::exchange(buckets_, std::vector<Bucket>(old_n * 2));
  mask_ = old_n * 2 - 1;
  for (size_t b = 0; b < old_n; ++b) {
    int filled[2] = {0, 0};  // Slots used in buckets b and b + old_n.
    for (const Slot& s : old[b].slots) {
      if (s.tag == 0) {
        continue;
      }
      // Keep whichever index put the slot in b at the old size.
      const uint64_t hash = records_[s.rec].hash;
      const uint64_t first = First(hash);
      const size_t to = ((first & (old_n - 1)) == b ? first : Second(hash)) &
                        mask_;
      const int half = to == b ? 0 : 1;
      buckets_[to].slots[filled[half]++] = s;
    }
  }
}

std::optional<std::string_view> CuckooHashMap::Get(
    const HashedKey& key) const {
  const Slot* s = FindSlot(key);
  if (s == nullptr) {
    return std::nullopt;
  }
  return records_[s->rec].value();
}

std::optional<size_t> CuckooHashMap::Erase(const HashedKey& key) {
  Slot* s = FindSlotMutable(key);
  if (s == nullptr) {
    return std::nullopt;
  }
  const Record& r = records_[s->rec];
  const size_t bytes = r.klen + r.vlen;
  FreeRecord(s->rec);
  s->tag = 0;
  s->rec = 0;
  size_--;
  return bytes;
}

void CuckooHashMap::ForEach(
    const std::function<void(std::string_view, std::string_view)>& fn) const {
  ForEachHashed(
      [&fn](const HashedKey& k, std::string_view v) { fn(k.key, v); });
}

void CuckooHashMap::ForEachHashed(
    const std::function<void(const HashedKey&, std::string_view)>& fn) const {
  for (const Bucket& b : buckets_) {
    for (const Slot& s : b.slots) {
      if (s.tag != 0) {
        const Record& r = records_[s.rec];
        fn(HashedKey(r.key(), r.hash), r.value());
      }
    }
  }
}

size_t CuckooHashMap::ExtractIf(
    const std::function<bool(const HashedKey&)>& pred,
    const std::function<void(std::string_view, std::string_view)>& sink) {
  size_t extracted = 0;
  for (Bucket& b : buckets_) {
    for (Slot& s : b.slots) {
      if (s.tag != 0 &&
          pred(HashedKey(records_[s.rec].key(), records_[s.rec].hash))) {
        const Record& r = records_[s.rec];
        // The sink sees views into bytes that are garbage the moment we
        // free the record — still readable until the arena compacts, and
        // past that for a caller holding a pin on this generation.
        sink(r.key(), r.value());
        FreeRecord(s.rec);
        s.tag = 0;
        s.rec = 0;
        size_--;
        extracted++;
      }
    }
  }
  return extracted;
}

void CuckooHashMap::CompactArena() {
  // Swap in the next generation first, then copy live records into it out
  // of the old one. `old` keeps the source readable for the whole copy no
  // matter when readers drop their pins; it (or the last pin) frees it.
  const std::shared_ptr<SlabArena> old =
      std::exchange(arena_, std::make_shared<SlabArena>());
  for (Bucket& b : buckets_) {
    for (Slot& s : b.slots) {
      if (s.tag != 0) {
        Record& r = records_[s.rec];
        StoreRecord(r.key(), r.value(), &r);
      }
    }
  }
}

double CuckooHashMap::GarbageRatio() const {
  const size_t stored = arena_->stored_bytes();
  if (stored == 0) {
    return 0.0;
  }
  return static_cast<double>(arena_->garbage_bytes()) /
         static_cast<double>(stored);
}

double CuckooHashMap::LoadFactor() const {
  return static_cast<double>(size_) /
         static_cast<double>(buckets_.size() * kSlotsPerBucket);
}

}  // namespace jiffy

