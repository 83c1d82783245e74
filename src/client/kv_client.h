// Client handle for the Jiffy KV-store (§5.3).
//
// Keys hash to one of H slots; each block owns a contiguous slot range and
// stores pairs in a cuckoo hash map. The client routes get/put/delete by key
// hash through its cached partition map. When a put drives a block past the
// high usage threshold, the client (acting as the overloaded block's
// repartition handler, Fig 8) splits the upper half of the slot range onto a
// freshly allocated block and moves the affected pairs inside the store —
// the task never reads the data back (partition-function shipping, §3.3).
// Deletes that leave a block nearly empty trigger the symmetric merge.

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
  // Finds the cached entry owning `slot`; returns false when absent (map
  // stale).
  bool RouteSlot(uint32_t slot, PartitionEntry* out) const;

  // Overload/underload dispatch: hands the pressure hint to the background
  // repartitioner when one is running (DESIGN.md §9), else falls back to the
  // legacy inline split/merge on this thread.
  void SignalOverload(Block* block, const PartitionEntry& entry);
  void SignalUnderload(Block* block, const PartitionEntry& entry);

  // Splits `entry`'s block: upper half of its slots move to a new block.
  // Inline (blocking) path — the data move happens under both block locks.
  Status TrySplit(const PartitionEntry& entry);

  // Merges `entry`'s block into an adjacent block when both fit.
  Status TryMerge(const PartitionEntry& entry);
};

}  // namespace jiffy

#endif  // SRC_CLIENT_KV_CLIENT_H_
