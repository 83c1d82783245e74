// KV-store data structure, block side (§5.3 "Jiffy KV-store").
//
// Keys hash to one of H hash slots (H=1024 by default); each block owns a
// contiguous slot range [slot_lo, slot_hi) and stores its pairs in a cuckoo
// hash map. When a block crosses the high usage threshold it hands the upper
// half of its slot range to a newly allocated block and moves the affected
// pairs (hash-based repartitioning, Table 2); a nearly-empty block merges
// its slots into an adjacent block. A shard rejects keys outside its range
// with kStaleMetadata so clients holding an outdated partition map refresh
// and re-route.
//
// Every operator has a HashedKey form: the client hashes a key once per op
// and the shard derives its slot from that hash, then hands the same hash
// to the cuckoo map, whose record table stores it. Range scans (SplitOff,
// SplitOffLower, DropRange, BeginMigration) compute slots from the stored
// hashes, so no operator re-hashes a key. The string_view forms, kept for
// callers off the hot path, hash once at the boundary and forward.
//
// Pair bytes live in the cuckoo map's SlabArena; read operators return
// string_views into it. The views are valid under the owning block's mutex,
// or across an unlock if the reader took an ArenaPin on arena() first
// (DESIGN.md §11). Mutating operators may compact when the garbage ratio
// gets high, which swaps in a new arena generation; a pinned reader keeps
// the generation it read from alive until it finishes.

#ifndef SRC_DS_KV_CONTENT_H_
#define SRC_DS_KV_CONTENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/block/arena.h"
#include "src/block/block.h"
#include "src/common/hash.h"
#include "src/common/status.h"
#include "src/ds/cuckoo_hash.h"

namespace jiffy {

// Slot for a key given H total slots: FNV-1a (HashKey1) mod H.
inline uint32_t KvSlotOf(const HashedKey& key, uint32_t total_slots) {
  return static_cast<uint32_t>(key.hash % total_slots);
}
uint32_t KvSlotOf(std::string_view key, uint32_t total_slots);

class KvShard : public BlockContent {
 public:
  // Per-pair metadata overhead charged against capacity.
  static constexpr size_t kPerPairOverhead = 8;

  // Tag for ContentAs<KvShard> (block.h).
  static constexpr DsType kContentType = DsType::kKvStore;

  KvShard(size_t capacity, uint32_t slot_lo, uint32_t slot_hi,
          uint32_t total_slots);

  DsType type() const override { return DsType::kKvStore; }
  size_t used_bytes() const override { return used_bytes_; }
  std::string Serialize() const override;

  static Result<std::unique_ptr<KvShard>> Deserialize(size_t capacity,
                                                      uint32_t slot_lo,
                                                      uint32_t slot_hi,
                                                      uint32_t total_slots,
                                                      std::string_view payload);

  // writeOp: inserts/replaces. kStaleMetadata when the key's slot is not
  // owned by this shard.
  Status Put(const HashedKey& key, std::string_view value);

  // readOp. The returned view aliases shard arena memory — copy it out
  // before releasing the block mutex, or hold an ArenaPin on arena().
  Result<std::string_view> Get(const HashedKey& key) const;

  // deleteOp.
  Status Delete(const HashedKey& key);

  Status Put(std::string_view key, std::string_view value) {
    return Put(HashedKey(key), value);
  }
  Result<std::string_view> Get(std::string_view key) const {
    return Get(HashedKey(key));
  }
  Status Delete(std::string_view key) { return Delete(HashedKey(key)); }

  // --- Batch operators (DESIGN.md §7) ---------------------------------------
  //
  // Each applies a whole group under the caller's single block-lock hold and
  // reports per-item outcomes aligned with the input; an item's status is
  // exactly what the corresponding single op would have returned, so a batch
  // never reports success for an item that was not applied. MultiGet results
  // are arena views with the same lifetime rule as Get.
  void MultiPut(
      const std::vector<std::pair<HashedKey, std::string_view>>& pairs,
      std::vector<Status>* statuses);
  void MultiGet(const std::vector<HashedKey>& keys,
                std::vector<Result<std::string_view>>* out) const;
  void MultiDelete(const std::vector<HashedKey>& keys,
                   std::vector<Status>* statuses);
  void MultiPut(
      const std::vector<std::pair<std::string_view, std::string_view>>& pairs,
      std::vector<Status>* statuses);
  void MultiGet(const std::vector<std::string_view>& keys,
                std::vector<Result<std::string_view>>* out) const;
  void MultiDelete(const std::vector<std::string_view>& keys,
                   std::vector<Status>* statuses);

  bool OwnsKey(const HashedKey& key) const {
    return OwnsSlot(KvSlotOf(key, total_slots_));
  }
  bool OwnsKey(std::string_view key) const { return OwnsKey(HashedKey(key)); }
  bool OwnsSlot(uint32_t slot) const {
    return slot >= slot_lo_ && slot < slot_hi_;
  }

  uint32_t slot_lo() const { return slot_lo_; }
  uint32_t slot_hi() const { return slot_hi_; }
  uint32_t slot_span() const { return slot_hi_ - slot_lo_; }
  uint32_t total_slots() const { return total_slots_; }
  size_t pair_count() const { return map_.size(); }
  size_t capacity() const { return capacity_; }

  // The shard's current arena generation. Readers that must keep views past
  // the block mutex take ArenaPin(arena()) while still holding the lock.
  const std::shared_ptr<SlabArena>& arena() const { return map_.arena(); }

  // Repartitioning support: removes every pair whose slot is in
  // [from_slot, slot_hi) and appends it to `out` (copied out of the arena —
  // the move buffer must own its bytes across blocks), then shrinks
  // this shard's range to [slot_lo, from_slot). Returns pairs moved.
  size_t SplitOff(uint32_t from_slot,
                  std::vector<std::pair<std::string, std::string>>* out);

  // Mirror of SplitOff for the low end of the range: removes every pair
  // whose slot is in [slot_lo, up_to_slot) into `out` and shrinks this
  // shard's range to [up_to_slot, slot_hi). Used when un-flipping a failed
  // merge whose target sits *above* the drained source (the moved range is
  // the lower part of the combined range).
  size_t SplitOffLower(uint32_t up_to_slot,
                       std::vector<std::pair<std::string, std::string>>* out);

  // --- Chunked live migration (DESIGN.md §9) --------------------------------
  //
  // Source side. BeginMigration(from_slot) snapshots the keys currently in
  // [from_slot, slot_hi) and starts dirty tracking: every Put/Delete that
  // lands in the migrating range records its key. SplitOffChunk *copies*
  // bounded chunks of the snapshot — the source stays authoritative for the
  // full range, so concurrent Get/Put/Delete keep working between chunks.
  // In the final catch-up (caller holds this block's mutex): TakeDirtyKeys
  // → re-read each via Get and reconcile at the destination → then
  // FinishMigration drops the range's pairs and shrinks slot_hi. All calls
  // must run under the owning block's mutex.
  Status BeginMigration(uint32_t from_slot);
  bool migrating() const { return migrating_; }
  uint32_t migrate_from() const { return migrate_from_; }

  // Copies snapshot pairs into `out` until ~max_bytes, advancing `*cursor`
  // (an index into the internal snapshot; start at 0). Keys deleted since
  // the snapshot are skipped. Returns true when the snapshot is exhausted.
  bool SplitOffChunk(size_t* cursor, size_t max_bytes,
                     std::vector<std::pair<std::string, std::string>>* out);

  // Drains the set of keys mutated in the migrating range since
  // BeginMigration (or the previous drain).
  std::vector<std::string> TakeDirtyKeys();

  // Drops every pair in [migrate_from, slot_hi), shrinks the owned range to
  // [slot_lo, migrate_from) and ends the migration. Compacts the arena, so
  // the migrated range's bytes are freed with the old generation. Returns
  // pairs dropped.
  size_t FinishMigration();

  // Ends the migration leaving the shard untouched (the source kept all its
  // data, so aborting is free).
  void AbortMigration();

  // Destination side. MoveInPairs bulk-upserts pairs whose slots lie in
  // [lo, hi) *without* the ownership check — during a migration the
  // destination holds data for a range it does not own yet. All-or-nothing:
  // validation runs before any insert, so on failure `*pairs` is untouched
  // (restorable at the caller); on success it is consumed.
  Status MoveInPairs(uint32_t lo, uint32_t hi,
                     std::vector<std::pair<std::string, std::string>>* pairs);

  // Erase without the ownership check (dirty-delete reconciliation on a
  // destination that does not own the range yet). False when absent.
  bool EraseMigrated(std::string_view key);

  // Removes every pair whose slot is in [lo, hi) regardless of ownership
  // (abort cleanup on a live merge target). Returns pairs dropped.
  size_t DropRange(uint32_t lo, uint32_t hi);

  // Commits ownership of an adjacent slot range (migration final hold).
  Status ExtendRange(uint32_t other_lo, uint32_t other_hi);

  // All pairs as arena views (for tests and flush verification).
  void ForEach(const std::function<void(std::string_view, std::string_view)>&
                   fn) const {
    map_.ForEach(fn);
  }

 private:
  // Records `key` in the dirty set when a migration is tracking its slot.
  void NoteDirty(std::string_view key, uint32_t slot);

  // Compacts the arena when mostly garbage (overwrite/delete churn, dropped
  // ranges). Never runs during a migration — the migrating range's pairs
  // are all still live, so compacting would copy them only to drop them at
  // FinishMigration, which compacts once at the end.
  void MaybeCompact();

  const size_t capacity_;
  uint32_t slot_lo_;
  uint32_t slot_hi_;
  const uint32_t total_slots_;
  CuckooHashMap map_;
  size_t used_bytes_ = 0;

  // Chunked-migration state (guarded by the owning block's mutex, like
  // everything else in the shard).
  bool migrating_ = false;
  uint32_t migrate_from_ = 0;
  // Snapshot keys with their stored hashes, so chunk reads do not re-hash.
  std::vector<std::pair<std::string, uint64_t>> snapshot_keys_;
  std::unordered_set<std::string> dirty_;
};

}  // namespace jiffy

#endif  // SRC_DS_KV_CONTENT_H_
