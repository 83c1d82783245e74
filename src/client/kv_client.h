// Client handle for the Jiffy KV-store (§5.3).
//
// Keys hash to one of H slots; each block owns a contiguous slot range and
// stores pairs in a cuckoo hash map. The client routes get/put/delete by key
// hash through its cached partition map. When a put drives a block past the
// high usage threshold, the client flags it to the cluster's background
// repartitioner, which splits the upper half of the slot range onto a
// freshly allocated block and moves the affected pairs inside the store —
// the task never reads the data back (partition-function shipping, §3.3;
// DESIGN.md §9). Deletes that leave a block nearly empty flag the
// symmetric merge.

#ifndef SRC_CLIENT_KV_CLIENT_H_
#define SRC_CLIENT_KV_CLIENT_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/block/arena.h"
#include "src/client/ds_client.h"
#include "src/net/frame.h"

namespace jiffy {

class KvClient : public DsClient {
 public:
  KvClient(JiffyCluster* cluster, std::string job, std::string prefix,
           PartitionMap initial_map)
      : DsClient(cluster, std::move(job), std::move(prefix),
                 std::move(initial_map), "kv") {}

  Status Put(std::string_view key, std::string_view value);
  Result<std::string> Get(std::string_view key);
  Status Delete(std::string_view key);
  Result<bool> Exists(std::string_view key);

  // --- Batched operations (DESIGN.md §7) ------------------------------------
  //
  // Operands are non-owning views grouped by destination block via the
  // cached partition map; each group travels as one coalesced transport
  // exchange (Transport::RoundTripBatch) and is applied under a single
  // block-lock hold. Results align index-for-index with the input.
  // Stale-metadata retries are merged per item: when a concurrent split
  // moves some keys, only those keys are re-sent after the map refresh —
  // never the whole batch. An item reports success only if its operator was
  // applied. Operand views must stay valid for the duration of the call
  // (they are read again on per-item retries and replica propagation).
  std::vector<Status> MultiPut(
      const std::vector<std::pair<std::string_view, std::string_view>>& pairs);
  std::vector<Status> MultiDelete(const std::vector<std::string_view>& keys);

  // Owning batched read in the wire shape (DESIGN.md §12): hits are views
  // into ONE owned buffer per call — the same single materialization a
  // response frame pays — instead of one std::string per value. The views
  // are independent of arena lifetime (safe to hold across later ops).
  WireValues MultiGet(const std::vector<std::string_view>& keys);

  // Convenience overloads for owning operands (views of the caller's
  // strings; no payload copies).
  std::vector<Status> MultiPut(
      const std::vector<std::pair<std::string, std::string>>& pairs);
  WireValues MultiGet(const std::vector<std::string>& keys);
  std::vector<Status> MultiDelete(const std::vector<std::string>& keys);

  // Zero-copy batched read (DESIGN.md §11): values are views into block
  // arena memory, kept alive by the pins — no payload bytes are copied
  // in-process. Views are valid until the PinnedValues is destroyed; each
  // pin keeps its block's arena generation alive after a compaction or
  // migration replaces it, so drop the result promptly.
  struct PinnedValues {
    std::vector<Result<std::string_view>> values;
    std::vector<ArenaPin> pins;
  };
  PinnedValues MultiGetPinned(const std::vector<std::string_view>& keys);

  // Atomic read-modify-write executed as a single data-structure operator
  // under the block lock: `merge(old, update)` produces the new value
  // (old is empty when the key is absent). This is how Piccolo's
  // user-defined accumulators resolve concurrent updates (§5.3). The view
  // arguments alias block/caller memory — valid only during the call.
  using MergeFn = std::function<std::string(std::string_view old_value,
                                            std::string_view update)>;
  Status Accumulate(std::string_view key, std::string_view update,
                    const MergeFn& merge);

  static constexpr char kPutOp[] = "put";
  static constexpr char kDeleteOp[] = "delete";

  // Total pairs across all shards (test/diagnostic helper; O(blocks)).
  Result<size_t> CountPairs();

 private:
  // The two engines every KV op runs on, in the shape of an Execute<Op>: an
  // engine opens the op's client span and SLO scope, routes, holds the
  // block, retries, and decides whether the op succeeded; the op supplies
  // its operator under the hold and its post-step (exchange, replica
  // propagation, persist, publish, pressure flag). A stale answer
  // (kStaleMetadata, or the block's content gone) refreshes the map and
  // retries; a dead block fails over. An op gives up with kUnavailable once
  // its retry policy's op_deadline has passed since its first retry, which
  // lets a reader wait out a split whose shards flipped before the
  // controller published the map (DESIGN.md §9, phase 6).
  struct OpSpec {
    const char* span;       // Client span; also names the op in its errors.
    const char* hold_span;  // Span around the operator under the block lock.
    bool read = false;      // Served by the chain tail (§4.2.2), not primary.
    bool misses_ok = false;  // Batch: kNotFound items still count as success.
  };

  // Both engines hash each key once per op, not per attempt, and hand the
  // shard HashedKeys. Each attempt routes through the current MapSnapshot's
  // slot index (ds_client.h): one lookup per key, no copy of the map. A slot
  // no entry owns means the map is stale, which refreshes it.

  // Single-key engine: `apply(block, shard) -> Status` runs under the hold.
  // A write whose operator failed returns that status before any exchange;
  // otherwise `post(entry, block, status)` returns the op's result (a
  // success when ok or kNotFound), or nullopt to execute the op again.
  template <typename R, typename Apply, typename Post>
  R ExecuteKey(const OpSpec& spec, const HashedKey& key, Apply&& apply,
               Post&& post);

  // Group engine: groups the operands (keys, or key/value pairs) by map
  // entry with one sort of (entry, operand index), so groups go out in entry
  // order and each keeps operand order (duplicate keys in one MultiPut apply
  // in the caller's order). `apply(shard, ops, &items)` fills one outcome
  // per hashed operand under the group's hold, then
  // `post(entry, block, ops, req_bytes, items)` issues the group's exchange
  // and returns its status. Stale items are re-sent; the rest get their
  // outcome, or the failed exchange's status — which a write's stale items
  // get too, while a read re-sends them.
  template <typename Operand, typename Item, typename Apply, typename Post>
  void ExecuteGroups(const OpSpec& spec, const std::vector<Operand>& operands,
                     std::vector<Item>* results, Apply&& apply, Post&& post);

  // Post-step of the batched writes after their exchange: sends the group's
  // items the shard applied down the chain (`replay(shard, op)`, one hop
  // per replica), persists and publishes them. False when none was applied.
  template <typename Op, typename Replay>
  bool ReplayApplied(const PartitionEntry& entry, const std::vector<Op>& ops,
                     const std::vector<Status>& items, const char* publish_op,
                     Replay&& replay);

  // Flag `entry`'s block to the background repartitioner (DESIGN.md §9)
  // when a write left it at or over the high threshold with more than one
  // slot, or a delete left it at or under the low one with a sibling to
  // merge into. Replicated prefixes never repartition.
  void MaybeFlagOverload(Block* block, const PartitionEntry& entry,
                         double usage, uint32_t slot_span);
  void MaybeFlagUnderload(Block* block, const PartitionEntry& entry,
                          double usage);
};

}  // namespace jiffy

#endif  // SRC_CLIENT_KV_CLIENT_H_
