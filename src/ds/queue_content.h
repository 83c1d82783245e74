// FIFO queue data structure, block side (§5.2 "Jiffy Queues").
//
// A queue is a growing linked list of segments, one per block: enqueue goes
// to the tail segment, dequeue to the head segment; a drained head segment
// is removed and its block freed, a full tail triggers allocation of a new
// tail (Table 2: queues add and remove blocks but never repartition data).
// Each item carries a small fixed metadata overhead, which is why Fig 11(a)
// shows allocated capacity slightly above the raw intermediate-data size.
//
// Item bytes live in a per-segment SlabArena; the deque holds views. A
// segment's arena never compacts — capacity is append-bounded, the whole
// segment is freed when drained — so any view handed out (dequeue results,
// the redelivery cache) stays valid for the life of the segment, and
// readers that must outlive the segment (client copy at the transport
// boundary) take an ArenaPin on arena() under the block mutex.

#ifndef SRC_DS_QUEUE_CONTENT_H_
#define SRC_DS_QUEUE_CONTENT_H_

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/block/arena.h"
#include "src/block/block.h"
#include "src/common/status.h"

namespace jiffy {

class QueueSegment : public BlockContent {
 public:
  // Per-item metadata overhead charged against block capacity (length word +
  // sequence number, mirroring the paper's "object metadata for the items
  // enqueued").
  static constexpr size_t kPerItemOverhead = 16;

  // Tag for ContentAs<QueueSegment> (block.h).
  static constexpr DsType kContentType = DsType::kQueue;

  explicit QueueSegment(size_t capacity);

  DsType type() const override { return DsType::kQueue; }
  size_t used_bytes() const override { return appended_bytes_; }
  std::string Serialize() const override;

  static Result<std::unique_ptr<QueueSegment>> Deserialize(
      size_t capacity, std::string_view payload);

  // True when the item was accepted (copied into the segment arena — the
  // single data-plane copy-in; the caller's buffer is not consumed, so
  // replica propagation can reuse the same view); false when it would
  // overflow the segment (caller then grows the queue by a new tail block).
  bool Enqueue(std::string_view item);

  // Pops the oldest item; kNotFound when this segment has been fully
  // consumed (caller advances to the next segment). The returned view stays
  // valid for the life of the segment (the arena never compacts).
  Result<std::string_view> Dequeue();

  // Oldest item without removing it.
  Result<std::string_view> Peek() const;

  // --- Batch operators (DESIGN.md §7) ---------------------------------------

  // Enqueues items[from..] in order until one would overflow (that item and
  // its successors are not stored and the segment seals, as Enqueue).
  // Returns the number of items accepted.
  size_t EnqueueBatch(const std::vector<std::string_view>& items, size_t from);

  // Pops up to `max_n` oldest items into `out` (appended in FIFO order);
  // returns the number popped (0 when this segment is empty).
  size_t DequeueBatch(size_t max_n, std::vector<std::string_view>* out);

  // --- Exactly-once dequeue under retries (DESIGN.md §10) -------------------
  //
  // The first call with a given token pops normally and caches what it
  // delivered; a repeated call with the same token (the client re-sent
  // because the reply was lost) returns the cached items WITHOUT popping
  // again, so a lost response can never double-consume. Empty results are
  // not cached — redelivering "empty" and popping a freshly enqueued item
  // are both linearizable outcomes for the retried call. The cache keeps
  // the most recent kRedeliveryWindow deliveries (FIFO eviction); cached
  // views stay valid because the segment's arena never compacts.
  static constexpr size_t kRedeliveryWindow = 64;
  Result<std::string_view> DequeueWithToken(uint64_t token);
  size_t DequeueBatchWithToken(uint64_t token, size_t max_n,
                               std::vector<std::string_view>* out);

  size_t item_count() const { return items_.size(); }
  bool Empty() const { return items_.empty(); }

  // A segment is sealed once an enqueue has been refused; a sealed, empty
  // segment is drained and can be reclaimed.
  bool sealed() const { return sealed_; }
  bool Drained() const { return sealed_ && items_.empty(); }
  void Seal() { sealed_ = true; }

  size_t capacity() const { return capacity_; }

  // The segment's slab arena, for ArenaPin at the client boundary.
  const std::shared_ptr<SlabArena>& arena() const { return arena_; }

 private:
  // Remembers a delivery for redelivery; evicts the oldest past the window.
  void CacheDelivery(uint64_t token, std::vector<std::string_view> delivered);

  const size_t capacity_;
  std::shared_ptr<SlabArena> arena_ = std::make_shared<SlabArena>();
  std::deque<std::string_view> items_;
  // Redelivery cache: token → items handed out under that token. Transient
  // (not serialized): replicas and restores start with a clean window.
  std::unordered_map<uint64_t, std::vector<std::string_view>> redeliveries_;
  std::deque<uint64_t> redelivery_order_;
  // Total bytes ever appended (capacity is append-bounded: dequeues do not
  // reopen space, matching the add-at-tail/remove-at-head block lifecycle).
  size_t appended_bytes_ = 0;
  bool sealed_ = false;
};

}  // namespace jiffy

#endif  // SRC_DS_QUEUE_CONTENT_H_
