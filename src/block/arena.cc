#include "src/block/arena.h"

#include <algorithm>
#include <cstring>

namespace jiffy {

std::atomic<uint64_t>& CopyMeter::Counter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

SlabArena::SlabArena(size_t chunk_bytes)
    : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}

std::string_view SlabArena::Store(std::string_view bytes) {
  char* dst = Alloc(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(dst, bytes.data(), bytes.size());
  }
  CopyMeter::Add(bytes.size());
  return std::string_view(dst, bytes.size());
}

char* SlabArena::Alloc(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep every allocation 8-byte aligned so fixed-width record headers can
  // live in slab memory too.
  const size_t need = (n + 7) & ~size_t{7};
  if (chunks_.empty() || chunks_.back().cap - chunks_.back().used < need) {
    // An oversize request gets a dedicated chunk.
    const size_t cap = std::max(need, chunk_bytes_);
    chunks_.push_back(
        Chunk{std::make_unique_for_overwrite<char[]>(cap), cap, 0});
  }
  Chunk& c = chunks_.back();
  char* p = c.data.get() + c.used;
  c.used += need;
  stored_bytes_.fetch_add(n, std::memory_order_relaxed);
  return p;
}

size_t SlabArena::footprint_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const Chunk& c : chunks_) {
    total += c.cap;
  }
  return total;
}

}  // namespace jiffy
