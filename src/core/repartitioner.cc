#include "src/core/repartitioner.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/block/arena.h"
#include "src/common/logging.h"
#include "src/ds/file_content.h"
#include "src/ds/kv_content.h"
#include "src/ds/queue_content.h"
#include "src/obs/trace.h"

namespace jiffy {

namespace {

// Off-lock dirty-drain rounds before the final hold: each round shrinks the
// delta the blocking catch-up has to move.
constexpr int kPreCatchupRounds = 2;

const PartitionEntry* FindEntry(const PartitionMap& map, BlockId block) {
  for (const PartitionEntry& e : map.entries) {
    if (e.block == block) {
      return &e;
    }
  }
  return nullptr;
}

}  // namespace

Repartitioner::Repartitioner(const JiffyConfig& config, Clock* clock,
                             Hooks hooks, Transport* control_net,
                             Transport* data_net)
    : config_(config),
      clock_(clock),
      hooks_(std::move(hooks)),
      control_net_(control_net),
      data_net_(data_net) {}

Repartitioner::~Repartitioner() { Stop(); }

void Repartitioner::BindMetrics(obs::MetricsRegistry* registry) {
  m_flags_ = registry->GetCounter("repartition.flags_total");
  m_splits_ = registry->GetCounter("repartition.splits_total");
  m_merges_ = registry->GetCounter("repartition.merges_total");
  m_chunks_ = registry->GetCounter("repartition.chunks_total");
  m_catchup_pairs_ = registry->GetCounter("repartition.catchup_pairs_total");
  m_aborts_ = registry->GetCounter("repartition.aborts_total");
  m_pause_ns_ = registry->GetHistogram("repartition.pause_ns");
}

void Repartitioner::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return;
  }
  stop_ = false;
  started_ = true;
  worker_ = std::thread([this] { WorkerLoop(); });
}

void Repartitioner::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) {
    worker_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
  queue_.clear();
  idle_cv_.notify_all();
}

void Repartitioner::Flag(Block* block, Hint hint) {
  if (block == nullptr || !block->TryFlagRepartition()) {
    return;  // Already flagged — the queued hint covers this observation.
  }
  if (!hint.origin.active()) {
    // Flag() runs on the data path, inside the triggering op's span.
    hint.origin = obs::CurrentTraceContext();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_) {
      // No worker to drain the flag; drop it so a later (running) instance
      // can be re-flagged.
      block->ClearRepartitionFlag();
      return;
    }
    queue_.push_back(std::move(hint));
  }
  obs::Inc(m_flags_);
  cv_.notify_one();
}

void Repartitioner::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return (!started_ || stop_) || (queue_.empty() && !in_flight_);
  });
}

void Repartitioner::WorkerLoop() {
  for (;;) {
    Hint hint;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) {
        idle_cv_.notify_all();
        return;
      }
      hint = std::move(queue_.front());
      queue_.pop_front();
      in_flight_ = true;
    }
    Process(hint);
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ = false;
      if (queue_.empty()) {
        idle_cv_.notify_all();
      }
    }
  }
}

void Repartitioner::ChargeControl() {
  if (control_net_->mode() == Transport::Mode::kSleep) {
    clock_->SleepFor(1200 * kMicrosecond);  // Controller connection setup.
  }
  control_net_->RoundTrip(128, 128);  // Overload/underload signal → alloc.
  control_net_->RoundTrip(128, 128);  // Partition-metadata update.
}

void Repartitioner::Process(const Hint& hint) {
  // Link the background work to the data-path op that flagged the block:
  // on another thread, so the exporter renders the edge as a flow event.
  JIFFY_TRACE_SPAN_UNDER("repartition.process", "repartitioner", hint.origin);
  Block* block = hooks_.resolve(hint.block);
  Controller* ctl = hooks_.controller(hint.job);
  std::shared_ptr<DsState> state = hooks_.ds_state(hint.job, hint.prefix);
  bool acted = false;
  Block* split_dest = nullptr;  // Set by a KV split that acted.
  if (ctl != nullptr && state != nullptr) {
    // Same per-DS scaling guard the inline tail/head paths use: losing the
    // race to a client-side grow just drops the hint — traffic re-flags if
    // pressure persists.
    bool expected = false;
    if (state->scaling_in_progress.compare_exchange_strong(expected, true)) {
      switch (hint.type) {
        case DsType::kKvStore:
          acted = hint.pressure == Pressure::kOverload
                      ? HandleKvOverload(hint, ctl, state.get(), &split_dest)
                      : HandleKvUnderload(hint, ctl, state.get());
          break;
        case DsType::kQueue:
          acted = hint.pressure == Pressure::kOverload
                      ? HandleQueueOverload(hint, ctl, state.get())
                      : HandleQueueUnderload(hint, ctl, state.get());
          break;
        case DsType::kFile:
          acted = HandleFileOverload(hint, ctl, state.get());
          break;
        case DsType::kCustom:
          break;  // Custom structures scale through their own clients.
      }
      state->scaling_in_progress.store(false);
    }
  }
  if (block != nullptr) {
    block->ClearRepartitionFlag();
  }
  // A split that acted re-queues each half that is still over threshold
  // (one split halves the range, not necessarily the usage), so the system
  // converges without waiting for the next data-path op. Declined hints are
  // NOT re-queued — that would spin when the action cannot succeed (no free
  // blocks, unsplittable range); the next op re-flags instead.
  if (acted && hint.type == DsType::kKvStore &&
      hint.pressure == Pressure::kOverload) {
    for (Block* half : {block, split_dest}) {
      if (half != nullptr && KvOverThreshold(half)) {
        Hint again = hint;
        again.block = half->id();
        Flag(half, std::move(again));
      }
    }
  }
}

bool Repartitioner::KvOverThreshold(Block* block) {
  Block::OpLock lock(*block);
  auto* shard = ContentAs<KvShard>(block->content());
  return shard != nullptr && shard->slot_span() > 1 &&
         static_cast<double>(shard->used_bytes()) >=
             config_.repartition_high_threshold *
                 static_cast<double>(block->capacity());
}

bool Repartitioner::HandleKvOverload(const Hint& hint, Controller* ctl,
                                     DsState* state, Block** split_dest) {
  JIFFY_TRACE_SPAN("repartition.kv_split", "repartitioner");
  const TimeNs start = clock_->Now();
  ChargeControl();
  auto map_r = ctl->GetPartitionMap(hint.job, hint.prefix);
  if (!map_r.ok()) {
    return false;
  }
  const PartitionEntry* entry = FindEntry(*map_r, hint.block);
  if (entry == nullptr || entry->migrating || !entry->replicas.empty() ||
      entry->hi - entry->lo < 2) {
    return false;
  }
  const uint64_t lo = entry->lo;
  const uint64_t hi = entry->hi;
  const uint64_t mid = lo + (hi - lo) / 2;
  Block* src = hooks_.resolve(hint.block);
  if (src == nullptr) {
    return false;
  }
  {
    // Re-validate under the lock: the pressure may have drained since the
    // flag was raised, or the shard may have been remapped.
    Block::OpLock lock(*src);
    auto* shard = ContentAs<KvShard>(src->content());
    if (shard == nullptr || shard->slot_lo() != lo || shard->slot_hi() != hi ||
        static_cast<double>(shard->used_bytes()) <
            config_.repartition_high_threshold *
                static_cast<double>(src->capacity())) {
      return false;
    }
  }
  // The destination starts out owning the empty range [mid, mid) and gains
  // [mid, hi) only in the final hold. A freed block can be reused as a
  // destination while a reader's cached map still names it; owning nothing
  // until then, it answers such a reader kStaleMetadata, never a NOT_FOUND
  // for a key whose pairs have not arrived yet.
  auto dest_r = ctl->AllocateUnmapped(hint.job, hint.prefix, mid, mid);
  if (!dest_r.ok()) {
    return false;  // No free blocks: decline, do not spin.
  }
  Block* dest = hooks_.resolve(*dest_r);
  if (dest == nullptr) {
    ctl->AbortUnmapped(*dest_r);
    return false;
  }
  if (!ctl->BeginMigration(hint.job, hint.prefix, hint.block).ok()) {
    ctl->AbortUnmapped(*dest_r);
    return false;
  }
  const Status st = MigrateKvRange(
      hint, ctl, src, dest, static_cast<uint32_t>(mid),
      static_cast<uint32_t>(hi), /*dest_unmapped=*/true, [&]() {
        PartitionEntry fresh;
        fresh.block = *dest_r;
        fresh.lo = mid;
        fresh.hi = hi;
        // Commit against the controller that owns the job *now* (a failover
        // may have promoted a standby since the hint was dequeued); the
        // commit refuses if that controller lost or cleared the bracket.
        return CurrentController(hint, ctl)
            ->CommitSplit(hint.job, hint.prefix, hint.block, lo, mid, fresh);
      });
  if (!st.ok()) {
    JIFFY_LOG(WARNING) << "background KV split aborted for " << hint.job << "/"
                       << hint.prefix << ": " << st;
    return false;
  }
  splits_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(m_splits_);
  state->splits.fetch_add(1);
  state->repartition_latency.Record(clock_->Now() - start);
  *split_dest = dest;
  return true;
}

bool Repartitioner::HandleKvUnderload(const Hint& hint, Controller* ctl,
                                      DsState* state) {
  JIFFY_TRACE_SPAN("repartition.kv_merge", "repartitioner");
  const TimeNs start = clock_->Now();
  ChargeControl();
  auto map_r = ctl->GetPartitionMap(hint.job, hint.prefix);
  if (!map_r.ok()) {
    return false;
  }
  if (map_r->entries.size() <= 1) {
    return false;
  }
  const PartitionEntry* entry = FindEntry(*map_r, hint.block);
  if (entry == nullptr || entry->migrating || !entry->replicas.empty()) {
    return false;
  }
  Block* src = hooks_.resolve(hint.block);
  if (src == nullptr) {
    return false;
  }
  size_t src_used = 0;
  {
    Block::OpLock lock(*src);
    auto* shard = ContentAs<KvShard>(src->content());
    if (shard == nullptr || shard->slot_lo() != entry->lo ||
        shard->slot_hi() != entry->hi ||
        static_cast<double>(shard->used_bytes()) >
            config_.repartition_low_threshold *
                static_cast<double>(src->capacity())) {
      return false;
    }
    src_used = shard->used_bytes();
  }
  // Slot-adjacent sibling with the most headroom.
  const PartitionEntry* sibling = nullptr;
  size_t sibling_used = 0;
  for (const PartitionEntry& e : map_r->entries) {
    if (e.block == hint.block || e.migrating || !e.replicas.empty()) {
      continue;
    }
    if (e.hi != entry->lo && e.lo != entry->hi) {
      continue;  // Not adjacent.
    }
    Block* cand = hooks_.resolve(e.block);
    if (cand == nullptr) {
      continue;
    }
    const size_t used = cand->UsedBytes();
    if (sibling == nullptr || used < sibling_used) {
      sibling = &e;
      sibling_used = used;
    }
  }
  if (sibling == nullptr) {
    return false;
  }
  // Skip when the combined block would immediately re-split.
  if (static_cast<double>(src_used + sibling_used) >
      config_.repartition_high_threshold * 0.75 *
          static_cast<double>(src->capacity())) {
    return false;
  }
  Block* dest = hooks_.resolve(sibling->block);
  if (dest == nullptr) {
    return false;
  }
  const uint64_t new_lo = std::min(sibling->lo, entry->lo);
  const uint64_t new_hi = std::max(sibling->hi, entry->hi);
  const BlockId sibling_id = sibling->block;
  if (!ctl->BeginMigration(hint.job, hint.prefix, hint.block).ok()) {
    return false;
  }
  const Status st = MigrateKvRange(
      hint, ctl, src, dest, static_cast<uint32_t>(entry->lo),
      static_cast<uint32_t>(entry->hi), /*dest_unmapped=*/false, [&]() {
        // See the split commit lambda: current controller + bracket check.
        return CurrentController(hint, ctl)
            ->CommitMerge(hint.job, hint.prefix, hint.block, sibling_id,
                          new_lo, new_hi);
      });
  if (!st.ok()) {
    JIFFY_LOG(WARNING) << "background KV merge aborted for " << hint.job << "/"
                       << hint.prefix << ": " << st;
    return false;
  }
  merges_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(m_merges_);
  state->merges.fetch_add(1);
  state->repartition_latency.Record(clock_->Now() - start);
  return true;
}

Status Repartitioner::MigrateKvRange(const Hint& hint, Controller* ctl,
                                     Block* src, Block* dest,
                                     uint32_t from_slot, uint32_t end_slot,
                                     bool dest_unmapped,
                                     const std::function<Status()>& commit) {
  // Phase 1: snapshot + start dirty tracking (short source hold).
  {
    const TimeNs h0 = clock_->Now();
    Block::OpLock lock(*src);
    auto* shard = ContentAs<KvShard>(src->content());
    if (shard == nullptr) {
      Controller* cur = CurrentController(hint, ctl);
      cur->EndMigration(hint.job, hint.prefix, hint.block);
      if (dest_unmapped) {
        cur->AbortUnmapped(dest->id());
      }
      return Internal("migration source content vanished");
    }
    const Status st = shard->BeginMigration(from_slot);
    if (!st.ok()) {
      Controller* cur = CurrentController(hint, ctl);
      cur->EndMigration(hint.job, hint.prefix, hint.block);
      if (dest_unmapped) {
        cur->AbortUnmapped(dest->id());
      }
      return st;
    }
    obs::Observe(m_pause_ns_, clock_->Now() - h0);
  }

  // Phase 2: chunked copy. The source lock is released between chunks, so
  // concurrent Put/Get/Delete interleave; the source stays authoritative
  // for the whole range (chunks are copies, mutations land in the dirty
  // set). The modeled network transfer is charged while holding NO lock.
  size_t cursor = 0;
  bool exhausted = false;
  while (!exhausted) {
    std::vector<std::pair<std::string, std::string>> chunk;
    bool src_gone = false;
    {
      const TimeNs h0 = clock_->Now();
      Block::OpLock lock(*src);
      auto* shard = ContentAs<KvShard>(src->content());
      if (shard == nullptr) {
        src_gone = true;  // Abort below, outside the lock.
      } else {
        exhausted = shard->SplitOffChunk(
            &cursor, config_.repartition_chunk_bytes, &chunk);
        obs::Observe(m_pause_ns_, clock_->Now() - h0);
      }
    }
    if (src_gone) {
      AbortKvMigration(hint, ctl, src, dest, dest_unmapped, from_slot,
                       end_slot);
      return Internal("migration source content vanished mid-copy");
    }
    if (chunk.empty()) {
      continue;
    }
    size_t chunk_bytes = 0;
    for (const auto& [k, v] : chunk) {
      chunk_bytes += k.size() + v.size();
    }
    Status st = Status::Ok();
    {
      Block::OpLock lock(*dest);
      auto* dshard = ContentAs<KvShard>(dest->content());
      st = dshard == nullptr
               ? Internal("migration destination content vanished")
               : dshard->MoveInPairs(from_slot, end_slot, &chunk);
    }
    if (!st.ok()) {
      AbortKvMigration(hint, ctl, src, dest, dest_unmapped, from_slot,
                       end_slot);
      return st;
    }
    data_net_->RoundTrip(chunk_bytes + 64, 64);
    obs::Inc(m_chunks_);
  }

  // Phase 3: off-lock catch-up rounds shrink the dirty delta so the final
  // hold moves as little as possible.
  for (int round = 0; round < kPreCatchupRounds; ++round) {
    std::vector<std::pair<std::string, std::string>> upserts;
    std::vector<std::string> deletions;
    size_t delta_bytes = 0;
    bool src_gone = false;
    {
      Block::OpLock lock(*src);
      auto* shard = ContentAs<KvShard>(src->content());
      if (shard == nullptr) {
        src_gone = true;  // Abort below, outside the lock.
      } else {
        for (std::string& key : shard->TakeDirtyKeys()) {
          auto value = shard->Get(key);
          if (value.ok()) {
            delta_bytes += key.size() + value->size();
            CopyMeter::Add(value->size());
            upserts.emplace_back(std::move(key), std::move(*value));
          } else {
            deletions.push_back(std::move(key));
          }
        }
      }
    }
    if (src_gone) {
      AbortKvMigration(hint, ctl, src, dest, dest_unmapped, from_slot,
                       end_slot);
      return Internal("migration source content vanished in catch-up");
    }
    if (upserts.empty() && deletions.empty()) {
      break;
    }
    Status st = Status::Ok();
    {
      Block::OpLock lock(*dest);
      auto* dshard = ContentAs<KvShard>(dest->content());
      if (dshard == nullptr) {
        st = Internal("migration destination content vanished in catch-up");
      } else {
        st = dshard->MoveInPairs(from_slot, end_slot, &upserts);
        for (const std::string& key : deletions) {
          dshard->EraseMigrated(key);
        }
      }
    }
    if (!st.ok()) {
      AbortKvMigration(hint, ctl, src, dest, dest_unmapped, from_slot,
                       end_slot);
      return st;
    }
    data_net_->RoundTrip(delta_bytes + 64, 64);
  }

  // Phase 4: final catch-up hold — the only window where concurrent ops on
  // the migrating range block for more than one chunk. Both block locks,
  // ascending id order (the documented rule). The residual delta moves and
  // ownership flips at the content level; CommitSplit/CommitMerge publish it
  // in the map right after the locks drop. A reader in that gap gets
  // kStaleMetadata and keeps refreshing until the publish lands, for up to
  // its retry policy's op_deadline.
  Status st = Status::Ok();
  size_t catchup_pairs = 0;
  const TimeNs hold_start = clock_->Now();
  {
    Block* first = src->id() < dest->id() ? src : dest;
    Block* second = first == src ? dest : src;
    Block::OpLock lock_a(*first);
    Block::OpLock lock_b(*second);
    auto* shard = ContentAs<KvShard>(src->content());
    auto* dshard = ContentAs<KvShard>(dest->content());
    if (shard == nullptr || dshard == nullptr) {
      st = Internal("migration content vanished at final hold");
    } else {
      std::vector<std::pair<std::string, std::string>> upserts;
      std::vector<std::string> deletions;
      size_t delta_bytes = 0;
      for (std::string& key : shard->TakeDirtyKeys()) {
        auto value = shard->Get(key);
        if (value.ok()) {
          delta_bytes += key.size() + value->size();
          CopyMeter::Add(value->size());
          upserts.emplace_back(std::move(key), std::move(*value));
        } else {
          deletions.push_back(std::move(key));
        }
      }
      catchup_pairs = upserts.size() + deletions.size();
      st = dshard->MoveInPairs(from_slot, end_slot, &upserts);
      if (st.ok()) {
        for (const std::string& key : deletions) {
          dshard->EraseMigrated(key);
        }
        // The residual transfer is the blocking part of the migration —
        // charged inside the hold on purpose.
        data_net_->RoundTrip(delta_bytes + 64, 64);
        st = dshard->ExtendRange(from_slot, end_slot);
        if (st.ok()) {
          shard->FinishMigration();
        }
      }
    }
  }
  obs::Observe(m_pause_ns_, clock_->Now() - hold_start);
  if (!st.ok()) {
    AbortKvMigration(hint, ctl, src, dest, dest_unmapped, from_slot, end_slot);
    return st;
  }
  obs::Inc(m_catchup_pairs_, catchup_pairs);

  const Status cst = commit();
  if (!cst.ok()) {
    // Commit refused: the job/prefix vanished (deregistration race), or a
    // promoted controller no longer carries the migration bracket. The
    // content already flipped in phase 4, so move the range's pairs *back*
    // into the source before unwinding — if the job still exists, its
    // authoritative map names the source for this range, and leaving the
    // pairs in an unmapped (about-to-be-freed) or foreign destination would
    // lose them.
    UnflipKvRange(src, dest, from_slot, end_slot);
    Controller* cur = CurrentController(hint, ctl);
    if (dest_unmapped) {
      cur->AbortUnmapped(dest->id());
    }
    // Clear a still-set bracket so the prefix's expiry/flush are not
    // deferred forever (benign kNotFound when the job is gone or a
    // failover repair already dropped it).
    cur->EndMigration(hint.job, hint.prefix, hint.block);
    aborts_.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(m_aborts_);
    return cst;
  }
  return Status::Ok();
}

Controller* Repartitioner::CurrentController(const Hint& hint,
                                             Controller* fallback) const {
  Controller* cur = hooks_.controller(hint.job);
  return cur != nullptr ? cur : fallback;
}

void Repartitioner::UnflipKvRange(Block* src, Block* dest, uint32_t from_slot,
                                  uint32_t end_slot) {
  Block* first = src->id() < dest->id() ? src : dest;
  Block* second = first == src ? dest : src;
  Block::OpLock lock_a(*first);
  Block::OpLock lock_b(*second);
  auto* shard = ContentAs<KvShard>(src->content());
  auto* dshard = ContentAs<KvShard>(dest->content());
  if (shard == nullptr || dshard == nullptr) {
    return;  // Content gone — nothing recoverable.
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  if (dshard->slot_lo() == from_slot && dshard->slot_hi() > end_slot) {
    // Merge target above the source: the moved range is the *lower* part of
    // the combined range.
    dshard->SplitOffLower(end_slot, &pairs);
  } else {
    // Split destination (owns exactly [from_slot, end_slot)) or a merge
    // target below the source: the moved range is the upper part.
    dshard->SplitOff(from_slot, &pairs);
  }
  if (!shard->ExtendRange(from_slot, end_slot).ok()) {
    return;  // Source range diverged (concurrent repair) — cannot restore.
  }
  shard->MoveInPairs(from_slot, end_slot, &pairs);
}

void Repartitioner::AbortKvMigration(const Hint& hint, Controller* ctl,
                                     Block* src, Block* dest,
                                     bool dest_unmapped, uint32_t from_slot,
                                     uint32_t end_slot) {
  {
    Block::OpLock lock(*src);
    auto* shard = ContentAs<KvShard>(src->content());
    if (shard != nullptr) {
      // The source kept all its data (chunks were copies), so aborting only
      // drops the tracking state.
      shard->AbortMigration();
    }
  }
  // Unwind against the controller that owns the job now — a failover may
  // have happened since this migration started.
  Controller* cur = CurrentController(hint, ctl);
  if (dest_unmapped) {
    cur->AbortUnmapped(dest->id());
  } else {
    // Live merge target: remove the foreign pairs installed for a range it
    // never came to own.
    Block::OpLock lock(*dest);
    auto* dshard = ContentAs<KvShard>(dest->content());
    if (dshard != nullptr) {
      dshard->DropRange(from_slot, end_slot);
    }
  }
  cur->EndMigration(hint.job, hint.prefix, hint.block);
  aborts_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(m_aborts_);
}

bool Repartitioner::HandleQueueOverload(const Hint& hint, Controller* ctl,
                                        DsState* state) {
  JIFFY_TRACE_SPAN("repartition.queue_grow", "repartitioner");
  const TimeNs start = clock_->Now();
  ChargeControl();
  auto map_r = ctl->GetPartitionMap(hint.job, hint.prefix);
  if (!map_r.ok() || map_r->entries.empty()) {
    return false;
  }
  const PartitionEntry tail = map_r->entries.back();
  if (tail.block != hint.block || !tail.replicas.empty()) {
    return false;  // Already grown past this segment.
  }
  Block* block = hooks_.resolve(tail.block);
  if (block == nullptr) {
    return false;
  }
  {
    Block::OpLock lock(*block);
    auto* seg = ContentAs<QueueSegment>(block->content());
    if (seg == nullptr) {
      return false;
    }
    if (!seg->sealed()) {
      if (static_cast<double>(seg->used_bytes()) <
          config_.repartition_high_threshold *
              static_cast<double>(block->capacity())) {
        return false;  // Pressure was transient.
      }
      // Seal before the new tail becomes visible so producers move over;
      // consumers can then reclaim this segment once it drains.
      seg->Seal();
    }
  }
  auto added = ctl->AddBlockIfTail(hint.job, hint.prefix, tail.block,
                                   tail.lo + 1, tail.lo + 1);
  if (!added.ok() &&
      added.status().code() != StatusCode::kFailedPrecondition) {
    return false;
  }
  splits_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(m_splits_);
  state->splits.fetch_add(1);
  state->repartition_latency.Record(clock_->Now() - start);
  return true;
}

bool Repartitioner::HandleQueueUnderload(const Hint& hint, Controller* ctl,
                                         DsState* state) {
  JIFFY_TRACE_SPAN("repartition.queue_reclaim", "repartitioner");
  const TimeNs start = clock_->Now();
  ChargeControl();
  auto map_r = ctl->GetPartitionMap(hint.job, hint.prefix);
  if (!map_r.ok() || map_r->entries.size() <= 1) {
    return false;  // Never reclaim the only (tail) segment.
  }
  const PartitionEntry head = map_r->entries.front();
  if (head.block != hint.block) {
    return false;  // Someone already reclaimed it.
  }
  Block* block = hooks_.resolve(head.block);
  if (block == nullptr) {
    return false;
  }
  {
    Block::OpLock lock(*block);
    auto* seg = ContentAs<QueueSegment>(block->content());
    if (seg == nullptr || !seg->Drained()) {
      return false;
    }
  }
  const Status st = ctl->RemoveBlock(hint.job, hint.prefix, head.block);
  if (!st.ok() && st.code() != StatusCode::kNotFound) {
    return false;
  }
  merges_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(m_merges_);
  state->merges.fetch_add(1);
  state->repartition_latency.Record(clock_->Now() - start);
  return true;
}

bool Repartitioner::HandleFileOverload(const Hint& hint, Controller* ctl,
                                       DsState* state) {
  JIFFY_TRACE_SPAN("repartition.file_grow", "repartitioner");
  const TimeNs start = clock_->Now();
  ChargeControl();
  auto map_r = ctl->GetPartitionMap(hint.job, hint.prefix);
  if (!map_r.ok() || map_r->entries.empty()) {
    return false;
  }
  const PartitionEntry tail = map_r->entries.back();
  if (tail.block != hint.block || !tail.replicas.empty()) {
    return false;  // Already grown.
  }
  Block* block = hooks_.resolve(tail.block);
  if (block == nullptr) {
    return false;
  }
  uint64_t end_offset = 0;
  {
    Block::OpLock lock(*block);
    auto* chunk = ContentAs<FileChunk>(block->content());
    if (chunk == nullptr || chunk->capped()) {
      return false;  // An inline (overflow) grow got here first.
    }
    if (static_cast<double>(chunk->used_bytes()) <
        config_.repartition_high_threshold *
            static_cast<double>(block->capacity())) {
      return false;  // Pressure was transient.
    }
    chunk->Cap();
    end_offset = chunk->end_offset();
  }
  // Cap the old tail entry at its true end, then append the next block
  // (same two-step publish as the inline path).
  Status st = ctl->UpdateEntryRange(hint.job, hint.prefix, tail.block, tail.lo,
                                    end_offset);
  if (st.ok()) {
    auto added = ctl->AddBlock(hint.job, hint.prefix, end_offset,
                               end_offset + config_.block_size_bytes);
    st = added.ok() ? Status::Ok() : added.status();
  }
  if (!st.ok()) {
    return false;  // The capped tail bounces writers to the inline grow.
  }
  splits_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(m_splits_);
  state->splits.fetch_add(1);
  state->repartition_latency.Record(clock_->Now() - start);
  return true;
}

}  // namespace jiffy
