// Cuckoo hash map for the KV-store block shards (§5.3: "Jiffy employs
// cuckoo hashing for highly concurrent KV operations").
//
// Two bucket choices, 4-way set-associative buckets, random-walk eviction
// with a bounded kick chain, and doubling when a chain fails. Within Jiffy a
// shard is always accessed under its block's operation mutex, so the map
// itself is single-writer; the cuckoo layout still pays off via O(1)
// worst-case lookups (at most two buckets probed).
//
// Hash once: every entry point takes a HashedKey (key + HashKey1 hash,
// computed once by the caller), and the record table stores the hash. The
// fingerprint, the first bucket (hash & mask) and the second bucket
// (Mix64(hash) & mask) all derive from it, so kicks, growth and range scans
// (ExtractIf hands its predicate the stored hash) never re-hash a key or
// read its bytes. Growth never recurses: a failed kick walk doubles the
// table, which moves every resident by its stored hash into one of the two
// halves of its old bucket and cannot fail, and the one slot the walk left
// homeless retries in the bigger table.
//
// Layout (the cache-friendly part): a bucket is four 8-byte slots — a
// 32-bit key fingerprint (tag, 0 = empty) plus a 32-bit index into a record
// table — so a whole bucket is one 32-byte probe and a negative lookup
// usually never touches key bytes. Key/value bytes live contiguously
// ([key][value]) in the map's SlabArena; the record table holds
// {data, hash, klen, vlen, cap}. Cuckoo kicks move slots between buckets,
// i.e. each kick is an 8-byte swap — record bytes never move during
// placement.
//
// Ownership contract (DESIGN.md §11): Get/ForEach/ExtractIf return
// string_views into arena memory, valid under the block mutex or for the
// life of an ArenaPin taken before unlocking. Stored bytes are never
// mutated while any pin is outstanding: with pins, an overwrite appends a
// new record and the old bytes become garbage until CompactArena(), so
// pinned readers see immutable data. With zero pins (the common case — a
// pin can only be taken under the same block mutex the writer holds), an
// overwrite that fits the record's original allocation rewrites the value
// in place, which keeps steady-state overwrite workloads garbage-free.
// CompactArena() copies the live records into a fresh arena generation and
// swaps it in; pins keep the old generation alive until they drop.

#ifndef SRC_DS_CUCKOO_HASH_H_
#define SRC_DS_CUCKOO_HASH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/block/arena.h"
#include "src/common/hash.h"

namespace jiffy {

class CuckooHashMap {
 public:
  // `initial_buckets` is rounded up to a power of two. The map stores all
  // key/value bytes in its own arena (arena()).
  explicit CuckooHashMap(size_t initial_buckets = 16);

  // Inserts or replaces, copying the operands into the arena (the data
  // plane's single copy-in). Returns the previous value's size if the key
  // was present (so callers can maintain byte accounting), or nullopt.
  std::optional<size_t> Put(const HashedKey& key, std::string_view value);

  // Returns a non-owning view of the stored value; valid under the block
  // mutex or for the life of an ArenaPin on this map's arena.
  std::optional<std::string_view> Get(const HashedKey& key) const;
  bool Contains(const HashedKey& key) const { return FindSlot(key) != nullptr; }

  // Removes the key; returns the erased (key,value) byte size, or nullopt.
  // The record bytes become arena garbage (still readable by pinned
  // readers) until CompactArena().
  std::optional<size_t> Erase(const HashedKey& key);

  // Unhashed conveniences: each hashes `key` once and forwards.
  std::optional<size_t> Put(std::string_view key, std::string_view value) {
    return Put(HashedKey(key), value);
  }
  std::optional<std::string_view> Get(std::string_view key) const {
    return Get(HashedKey(key));
  }
  bool Contains(std::string_view key) const {
    return Contains(HashedKey(key));
  }
  std::optional<size_t> Erase(std::string_view key) {
    return Erase(HashedKey(key));
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t bucket_count() const { return buckets_.size(); }

  // Visits every entry as arena views. The visitor must not mutate the map.
  void ForEach(
      const std::function<void(std::string_view, std::string_view)>& fn)
      const;
  // Same, with each key's stored hash.
  void ForEachHashed(
      const std::function<void(const HashedKey&, std::string_view)>& fn)
      const;

  // Removes every entry matching `pred`, which sees the key with its stored
  // hash, and hands it to `sink` as arena views (the repartitioner copies
  // them out). The extracted bytes become arena garbage.
  size_t ExtractIf(
      const std::function<bool(const HashedKey&)>& pred,
      const std::function<void(std::string_view, std::string_view)>& sink);

  // Copies the live records into a new arena generation and swaps it in.
  // The old generation is freed on return unless an ArenaPin still holds
  // it. Call when GarbageRatio() says the slabs are mostly dead — after a
  // migration drops a key range, or after heavy overwrite churn.
  // Invalidates unpinned views, and any arena() handle taken before.
  void CompactArena();

  // Fraction of stored arena bytes that are garbage (0 when empty).
  double GarbageRatio() const;

  // Load factor over bucket slots.
  double LoadFactor() const;

  // The current generation; CompactArena() replaces it.
  const std::shared_ptr<SlabArena>& arena() const { return arena_; }

 private:
  // One 8-byte probe unit: tag is a key fingerprint (never 0 for occupied
  // slots), rec indexes records_.
  struct Slot {
    uint32_t tag = 0;
    uint32_t rec = 0;
  };
  static constexpr int kSlotsPerBucket = 4;
  static constexpr int kMaxKicks = 256;

  struct Bucket {
    Slot slots[kSlotsPerBucket];
  };
  static_assert(sizeof(Slot) == 8, "slot must be one 8-byte word");

  // Record bytes are [key][value] contiguous in the arena. cap is the
  // 8-byte-rounded allocation size, so a pin-free overwrite whose bytes
  // still fit can rewrite the value in place instead of appending garbage.
  struct Record {
    const char* data = nullptr;
    uint64_t hash = 0;  // HashKey1 of the key, as the caller supplied it.
    uint32_t klen = 0;
    uint32_t vlen = 0;
    uint32_t cap = 0;
    std::string_view key() const { return {data, klen}; }
    std::string_view value() const { return {data + klen, vlen}; }
  };

  // Each bucket index is a fixed 64-bit value masked to the table size.
  static uint64_t First(uint64_t hash) { return hash; }
  static uint64_t Second(uint64_t hash) { return Mix64(hash); }
  size_t Index1(uint64_t hash) const { return First(hash) & mask_; }
  size_t Index2(uint64_t hash) const { return Second(hash) & mask_; }
  static uint32_t Tag(uint64_t hash);

  // Finds the slot holding `key`, or nullptr.
  const Slot* FindSlot(const HashedKey& key) const;
  Slot* FindSlotMutable(const HashedKey& key);

  // Copies [key][value] into the arena and fills `rec`'s bytes (not its
  // hash).
  void StoreRecord(std::string_view key, std::string_view value, Record* rec);
  uint32_t AllocRecord(const HashedKey& key, std::string_view value);
  void FreeRecord(uint32_t rec);

  // Places a new slot, doubling the table until a kick walk finds it a
  // home. Pure slot movement — record bytes are untouched.
  void Insert(Slot s);

  // One bounded random-walk placement. Returns the slot the walk left
  // without a home (`s` or a resident it evicted), or nullopt.
  std::optional<Slot> TryPlace(Slot s);

  // Doubles the bucket array, moving each resident by its stored hash.
  void Grow();

  std::shared_ptr<SlabArena> arena_ = std::make_shared<SlabArena>();
  std::vector<Bucket> buckets_;
  std::vector<Record> records_;
  std::vector<uint32_t> free_recs_;
  size_t mask_;
  size_t size_ = 0;
  uint64_t kick_seed_ = 0x2545f4914f6cdd1dULL;
};

}  // namespace jiffy

#endif  // SRC_DS_CUCKOO_HASH_H_
