// Slab arena backing block content bytes (DESIGN.md §11).
//
// Every data-structure content (KV shard, queue segment, file chunk) stores
// its payload bytes — keys, values, items, file data — in a per-block
// SlabArena instead of per-entry std::strings. Allocation is a bump pointer
// into fixed-size chunks, so the data plane pays one memcpy per stored
// payload and zero per-entry heap allocations. Chunks are never freed one
// by one: they all go when the arena object dies.
//
// An arena is one *generation* of a content's bytes. Reclaiming garbage
// (CuckooHashMap::CompactArena) copies the live records into a fresh
// SlabArena and swaps it in; shared_ptr frees the old generation once its
// last reference drops — the same way content teardown frees an arena.
//
// Readers hand out `std::string_view`s into arena memory. The lifetime rule
// is pin based (DESIGN.md §11):
//
//   * A reader that wants views to outlive the owning block's mutex takes an
//     ArenaPin while still holding the mutex, then unlocks. The pin holds a
//     reference to that generation, so its views stay valid for the life of
//     the pin across compaction, migration and content teardown.
//   * Writers never mutate bytes a pin could see: while pins() > 0 an
//     overwrite appends a new record and marks the old bytes as garbage, so
//     a pinned reader's view is immutable, not just non-dangling.
//
// A freed generation is an ordinary heap free, so a dangling view into it is
// a heap-use-after-free that AddressSanitizer reports on its own.

#ifndef SRC_BLOCK_ARENA_H_
#define SRC_BLOCK_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

namespace jiffy {

// Process-wide tally of payload bytes physically copied on the data plane:
// arena copy-ins plus the single materialization at the transport boundary.
// The zero-copy claim is measured against this (bench/micro_ops reports
// bytes_copied_per_op), so every intentional copy site must call Add().
class CopyMeter {
 public:
  static void Add(size_t n) {
    Counter().fetch_add(n, std::memory_order_relaxed);
  }
  static uint64_t Total() { return Counter().load(std::memory_order_relaxed); }

 private:
  static std::atomic<uint64_t>& Counter();
};

class SlabArena {
 public:
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  explicit SlabArena(size_t chunk_bytes = kDefaultChunkBytes);

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Copies `bytes` into arena memory and returns a view of the copy, valid
  // for the life of this arena (see the pin rule above). Counted by
  // CopyMeter. Call with the owning block's mutex held.
  std::string_view Store(std::string_view bytes);

  // Raw uninitialized allocation (FileChunk's fixed buffer). Same locking
  // rule as Store. Alignment is 8 bytes.
  char* Alloc(size_t n);

  // Accounting-only logical free: the bytes stay valid (readers may still
  // hold views) but count as garbage until compaction moves the live
  // records to the next generation.
  void NoteGarbage(size_t n) {
    garbage_bytes_.fetch_add(n, std::memory_order_relaxed);
  }

  // Accounting for an in-place overwrite that shrank or grew a record
  // within its original allocation (no new bytes were bump-allocated).
  void AdjustStored(int64_t delta) {
    if (delta >= 0) {
      stored_bytes_.fetch_add(static_cast<size_t>(delta),
                              std::memory_order_relaxed);
    } else {
      stored_bytes_.fetch_sub(static_cast<size_t>(-delta),
                              std::memory_order_relaxed);
    }
  }

  // --- Pinning (readers) ----------------------------------------------------
  // Take the pin under the block mutex; drop it whenever done. Prefer the
  // RAII ArenaPin below over calling these directly. The count only gates
  // in-place overwrites; the pin's shared_ptr is what keeps the bytes alive.
  void Pin() { pins_.fetch_add(1, std::memory_order_acq_rel); }
  void Unpin() { pins_.fetch_sub(1, std::memory_order_acq_rel); }
  int64_t pins() const { return pins_.load(std::memory_order_acquire); }

  // --- Accounting -----------------------------------------------------------
  size_t stored_bytes() const {
    return stored_bytes_.load(std::memory_order_relaxed);
  }
  size_t garbage_bytes() const {
    return garbage_bytes_.load(std::memory_order_relaxed);
  }
  size_t live_bytes() const {
    const size_t stored = stored_bytes();
    const size_t garbage = garbage_bytes();
    return stored >= garbage ? stored - garbage : 0;
  }
  // Total chunk bytes this generation holds.
  size_t footprint_bytes() const;

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t cap = 0;
    size_t used = 0;
  };

  const size_t chunk_bytes_;
  // Guards chunks_. Allocation additionally requires the owning block's
  // mutex; mu_ lets footprint_bytes() run from threads that do not hold it.
  mutable std::mutex mu_;
  std::vector<Chunk> chunks_;
  std::atomic<int64_t> pins_{0};
  std::atomic<size_t> stored_bytes_{0};
  std::atomic<size_t> garbage_bytes_{0};
};

// RAII arena pin with shared ownership: the pin keeps the generation it was
// taken on alive, so views stay valid after a compaction swaps in the next
// generation, and after the content that handed them out is destroyed
// (lease expiry, RemoveContent) while a response is in flight.
class ArenaPin {
 public:
  ArenaPin() = default;
  explicit ArenaPin(std::shared_ptr<SlabArena> arena)
      : arena_(std::move(arena)) {
    if (arena_ != nullptr) {
      arena_->Pin();
    }
  }
  ~ArenaPin() { Release(); }

  ArenaPin(ArenaPin&& other) noexcept : arena_(std::move(other.arena_)) {
    other.arena_.reset();
  }
  ArenaPin& operator=(ArenaPin&& other) noexcept {
    if (this != &other) {
      Release();
      arena_ = std::move(other.arena_);
      other.arena_.reset();
    }
    return *this;
  }
  ArenaPin(const ArenaPin&) = delete;
  ArenaPin& operator=(const ArenaPin&) = delete;

  explicit operator bool() const { return arena_ != nullptr; }

  void Release() {
    if (arena_ != nullptr) {
      arena_->Unpin();
      arena_.reset();
    }
  }

 private:
  std::shared_ptr<SlabArena> arena_;
};

}  // namespace jiffy

#endif  // SRC_BLOCK_ARENA_H_
