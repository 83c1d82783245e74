// Unit and concurrency tests for the thread-per-core primitives behind
// DESIGN.md §13: the Block bias handshake (single-writer execution without
// mu(), revocable by any OpLock holder) and the bounded MPSC ring the wire
// loops forward requests through.
//
// Suite names contain "Concurrency" so the TSan CI job picks them up — the
// Dekker-style handshake and the ring's acquire/release choreography are
// exactly what TSan validates here, using deliberately NON-atomic shared
// state as the detector.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/block/block.h"
#include "src/block/block_id.h"
#include "src/net/mpsc_ring.h"

namespace jiffy {
namespace {

// --- Bias handshake basics ---------------------------------------------------

TEST(BlockBiasConcurrencyTest, GrantEnablesFastPathForOwnerOnly) {
  Block block(BlockId{0, 0}, 4096);
  constexpr uint64_t kOwner = 101;
  constexpr uint64_t kStranger = 202;

  // Unbiased: nobody gets the fast path, and tag 0 (kSharedBias) never does.
  EXPECT_FALSE(block.TryBeginBiasedOp(kOwner));
  EXPECT_FALSE(block.TryBeginBiasedOp(Block::kSharedBias));

  {
    Block::OpLock lock(block);
    block.GrantBias(kOwner);
  }
  EXPECT_EQ(block.bias(), kOwner);
  ASSERT_TRUE(block.TryBeginBiasedOp(kOwner));
  block.EndBiasedOp();
  EXPECT_FALSE(block.TryBeginBiasedOp(kStranger));
  EXPECT_EQ(block.biased_ops(), 1u);
}

TEST(BlockBiasConcurrencyTest, OpLockRevokesAnExistingBias) {
  Block block(BlockId{0, 1}, 4096);
  constexpr uint64_t kOwner = 7;
  {
    Block::OpLock lock(block);
    block.GrantBias(kOwner);
  }
  ASSERT_TRUE(block.TryBeginBiasedOp(kOwner));
  block.EndBiasedOp();

  // Any shared accessor strips the bias before touching content...
  { Block::OpLock lock(block); }
  EXPECT_EQ(block.bias(), Block::kSharedBias);
  EXPECT_FALSE(block.TryBeginBiasedOp(kOwner));
  EXPECT_EQ(block.bias_revokes(), 1u);

  // ...and an unbiased OpLock does not count a revoke.
  { Block::OpLock lock(block); }
  EXPECT_EQ(block.bias_revokes(), 1u);
}

// The mutual-exclusion proof: one owner thread hammers the biased fast path
// (re-granting through OpLock whenever revoked) while revoker threads take
// OpLocks, ALL incrementing one non-atomic counter. Any overlap between a
// biased operator and a lock holder is a lost update (count mismatch) and a
// TSan data race. Revokers start only once the owner holds the bias and has
// completed one biased op, so the first revoker's OpLock must revoke — on
// any schedule, not only when the threads happen to overlap.
TEST(BlockBiasConcurrencyTest, BiasedOwnerExcludesOpLockHolders) {
  Block block(BlockId{0, 2}, 4096);
  constexpr uint64_t kOwnerTag = 42;
  constexpr int kOwnerOps = 20000;
  constexpr int kRevokers = 3;
  constexpr int kRevokerOps = 2000;
  uint64_t counter = 0;  // Deliberately non-atomic.
  std::atomic<bool> biased{false};

  std::thread owner([&] {
    for (int i = 0; i < kOwnerOps; ++i) {
      if (block.TryBeginBiasedOp(kOwnerTag)) {
        ++counter;
        block.EndBiasedOp();
        biased.store(true, std::memory_order_release);
      } else {
        Block::OpLock lock(block);
        ++counter;
        block.GrantBias(kOwnerTag);
      }
    }
  });
  std::vector<std::thread> revokers;
  for (int r = 0; r < kRevokers; ++r) {
    revokers.emplace_back([&] {
      while (!biased.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kRevokerOps; ++i) {
        Block::OpLock lock(block);
        ++counter;
      }
    });
  }
  owner.join();
  for (std::thread& t : revokers) {
    t.join();
  }
  EXPECT_EQ(counter, static_cast<uint64_t>(kOwnerOps) +
                         static_cast<uint64_t>(kRevokers) * kRevokerOps);
  // The interleaving must have actually exercised both modes.
  EXPECT_GT(block.biased_ops(), 0u);
  EXPECT_GT(block.bias_revokes(), 0u);
}

// --- MPSC forwarding ring ----------------------------------------------------

TEST(MpscRingConcurrencyTest, PushPopRoundTripsAndBoundsCapacity) {
  MpscRing<int> ring(4);  // Rounds to 4 slots.
  bool was_empty = false;
  EXPECT_TRUE(ring.Empty());
  for (int i = 0; i < 4; ++i) {
    int v = i;
    ASSERT_TRUE(ring.Push(std::move(v), &was_empty));
    EXPECT_EQ(was_empty, i == 0);
  }
  int overflow = 99;
  EXPECT_FALSE(ring.Push(std::move(overflow)));  // Full: bounded, not lossy.
  for (int i = 0; i < 4; ++i) {
    int got = -1;
    ASSERT_TRUE(ring.Pop(&got));
    EXPECT_EQ(got, i);  // FIFO.
  }
  int none = -1;
  EXPECT_FALSE(ring.Pop(&none));
  EXPECT_TRUE(ring.Empty());
}

TEST(MpscRingConcurrencyTest, ManyProducersOneConsumerLosesNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  MpscRing<uint64_t> ring(256);
  std::atomic<bool> start{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kPerProducer; ++i) {
        uint64_t item = (static_cast<uint64_t>(p) << 32) |
                        static_cast<uint64_t>(i);
        while (!ring.Push(std::move(item))) {
          std::this_thread::yield();  // Full: wait for the consumer.
        }
      }
    });
  }

  // Single consumer, exactly the wire-loop drain pattern.
  std::vector<uint64_t> next(kProducers, 0);
  uint64_t received = 0;
  uint64_t misordered = 0;
  start.store(true, std::memory_order_release);
  while (received < static_cast<uint64_t>(kProducers) * kPerProducer) {
    uint64_t item = 0;
    if (!ring.Pop(&item)) {
      std::this_thread::yield();
      continue;
    }
    const size_t p = static_cast<size_t>(item >> 32);
    const uint64_t seq = item & 0xffffffffu;
    // Per-producer FIFO: each producer's items arrive in push order.
    if (seq != next[p]) {
      ++misordered;
    }
    next[p] = seq + 1;
    ++received;
  }
  for (std::thread& t : producers) {
    t.join();
  }
  EXPECT_EQ(misordered, 0u);
  EXPECT_EQ(received, static_cast<uint64_t>(kProducers) * kPerProducer);
  EXPECT_TRUE(ring.Empty());  // Nothing duplicated or stranded.
}

// Move-only payloads (the rings carry request bodies and responses) must
// move through the ring without copies.
TEST(MpscRingConcurrencyTest, CarriesMoveOnlyPayloads) {
  MpscRing<std::unique_ptr<int>> ring(8);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.Push(std::make_unique<int>(i)));
  }
  for (int i = 0; i < 8; ++i) {
    std::unique_ptr<int> got;
    ASSERT_TRUE(ring.Pop(&got));
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, i);
  }
}

}  // namespace
}  // namespace jiffy
