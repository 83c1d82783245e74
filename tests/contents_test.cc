// Unit tests for block contents: FileChunk, QueueSegment, KvShard, and
// their flush/restore serialization (§3.2, §5).

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/ds/file_content.h"
#include "src/ds/kv_content.h"
#include "src/ds/queue_content.h"
#include "src/common/serde.h"

namespace jiffy {
namespace {

// --- FileChunk ---------------------------------------------------------------

TEST(FileChunkTest, AppendAndRead) {
  FileChunk chunk(64, /*base_offset=*/0);
  EXPECT_EQ(chunk.Append("hello "), 6u);
  EXPECT_EQ(chunk.Append("world"), 5u);
  EXPECT_EQ(chunk.used_bytes(), 11u);
  auto r = chunk.ReadAt(0, 11);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "hello world");
  EXPECT_EQ(*chunk.ReadAt(6, 5), "world");
}

TEST(FileChunkTest, PartialAppendAtCapacity) {
  FileChunk chunk(8, 0);
  EXPECT_EQ(chunk.Append("0123456789"), 8u);
  EXPECT_EQ(chunk.used_bytes(), 8u);
  EXPECT_EQ(chunk.Append("x"), 0u);
}

TEST(FileChunkTest, BaseOffsetRespected) {
  FileChunk chunk(64, /*base_offset=*/100);
  chunk.Append("abcdef");
  EXPECT_EQ(chunk.end_offset(), 106u);
  EXPECT_EQ(*chunk.ReadAt(102, 2), "cd");
  EXPECT_EQ(chunk.ReadAt(50, 4).status().code(), StatusCode::kInvalidArgument);
  // Reads past the end return empty (EOF), not an error.
  EXPECT_EQ(*chunk.ReadAt(106, 4), "");
}

TEST(FileChunkTest, CapStopsAppends) {
  FileChunk chunk(64, 0);
  chunk.Append("data");
  chunk.Cap();
  EXPECT_TRUE(chunk.capped());
  EXPECT_EQ(chunk.Append("more"), 0u);
  EXPECT_EQ(*chunk.ReadAt(0, 4), "data");
}

TEST(FileChunkTest, SerializeRoundTrip) {
  FileChunk chunk(64, 10);
  chunk.Append("persisted-bytes");
  auto restored = FileChunk::Deserialize(64, 10, chunk.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->used_bytes(), chunk.used_bytes());
  EXPECT_EQ(*(*restored)->ReadAt(10, 15), "persisted-bytes");
}

TEST(FileChunkTest, DeserializeRejectsOversizedPayload) {
  std::string big(100, 'x');
  EXPECT_FALSE(FileChunk::Deserialize(64, 0, big).ok());
}

// --- QueueSegment ------------------------------------------------------------

TEST(QueueSegmentTest, FifoOrder) {
  QueueSegment seg(1024);
  EXPECT_TRUE(seg.Enqueue("a"));
  EXPECT_TRUE(seg.Enqueue("b"));
  EXPECT_TRUE(seg.Enqueue("c"));
  EXPECT_EQ(*seg.Dequeue(), "a");
  EXPECT_EQ(*seg.Peek(), "b");
  EXPECT_EQ(*seg.Dequeue(), "b");
  EXPECT_EQ(*seg.Dequeue(), "c");
  EXPECT_EQ(seg.Dequeue().status().code(), StatusCode::kNotFound);
}

TEST(QueueSegmentTest, CapacitySealsSegment) {
  QueueSegment seg(2 * (4 + QueueSegment::kPerItemOverhead));
  EXPECT_TRUE(seg.Enqueue("aaaa"));
  EXPECT_TRUE(seg.Enqueue("bbbb"));
  std::string item = "cccc";
  EXPECT_FALSE(seg.Enqueue(std::move(item)));
  EXPECT_EQ(item, "cccc");  // Rejected item is left intact for retry.
  EXPECT_TRUE(seg.sealed());
  EXPECT_FALSE(seg.Drained());
  (void)seg.Dequeue();
  (void)seg.Dequeue();
  EXPECT_TRUE(seg.Drained());
}

TEST(QueueSegmentTest, DequeueDoesNotReopenCapacity) {
  QueueSegment seg(1 * (4 + QueueSegment::kPerItemOverhead));
  EXPECT_TRUE(seg.Enqueue("aaaa"));
  (void)seg.Dequeue();
  // Capacity is append-bounded: the drained space is not reused.
  EXPECT_FALSE(seg.Enqueue("bbbb"));
}

TEST(QueueSegmentTest, SerializeRoundTrip) {
  QueueSegment seg(1024);
  seg.Enqueue("one");
  seg.Enqueue("two");
  seg.Seal();
  auto restored = QueueSegment::Deserialize(1024, seg.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->item_count(), 2u);
  EXPECT_TRUE((*restored)->sealed());
  EXPECT_EQ(*(*restored)->Dequeue(), "one");
  EXPECT_EQ(*(*restored)->Dequeue(), "two");
}

TEST(QueueSegmentTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(QueueSegment::Deserialize(1024, "nonsense").ok());
}

// --- KvShard -----------------------------------------------------------------

KvShard FullRangeShard(size_t capacity = 1 << 16) {
  return KvShard(capacity, 0, 1024, 1024);
}

TEST(KvShardTest, PutGetDelete) {
  KvShard shard = FullRangeShard();
  ASSERT_TRUE(shard.Put("key", "value").ok());
  EXPECT_EQ(*shard.Get("key"), "value");
  EXPECT_TRUE(shard.Delete("key").ok());
  EXPECT_EQ(shard.Get("key").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(shard.Delete("key").code(), StatusCode::kNotFound);
}

TEST(KvShardTest, UsedBytesAccounting) {
  KvShard shard = FullRangeShard();
  ASSERT_TRUE(shard.Put("abc", "defg").ok());
  EXPECT_EQ(shard.used_bytes(), 3 + 4 + KvShard::kPerPairOverhead);
  ASSERT_TRUE(shard.Put("abc", "xy").ok());  // Replace with shorter value.
  EXPECT_EQ(shard.used_bytes(), 3 + 2 + KvShard::kPerPairOverhead);
  ASSERT_TRUE(shard.Delete("abc").ok());
  EXPECT_EQ(shard.used_bytes(), 0u);
}

TEST(KvShardTest, RejectsKeysOutsideSlotRange) {
  // Shard owning no slots rejects everything with kStaleMetadata.
  KvShard shard(1 << 16, 0, 0, 1024);
  EXPECT_EQ(shard.Put("k", "v").code(), StatusCode::kStaleMetadata);
  EXPECT_EQ(shard.Get("k").status().code(), StatusCode::kStaleMetadata);
  EXPECT_EQ(shard.Delete("k").code(), StatusCode::kStaleMetadata);
}

// The hashed batch operators return, item for item, exactly what the
// string_view ones return: two shards owning the lower half of the slots,
// one driven each way, including kStaleMetadata for keys of the upper half
// and kNotFound for misses.
TEST(KvShardTest, HashedBatchOperatorsMatchStringViewOperators) {
  KvShard plain(1 << 16, 0, 512, 1024);
  KvShard hashed(1 << 16, 0, 512, 1024);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  const auto expect_same = [](const auto& a, const auto& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].ToString(), b[i].ToString()) << i;
    }
  };
  const auto count_code = [](const std::vector<Status>& statuses,
                             StatusCode code) {
    size_t n = 0;
    for (const Status& st : statuses) {
      n += st.code() == code ? 1 : 0;
    }
    return n;
  };

  std::vector<std::pair<std::string_view, std::string_view>> put_views;
  std::vector<std::pair<HashedKey, std::string_view>> put_hashed;
  for (int i = 0; i < 48; ++i) {
    put_views.emplace_back(keys[i], keys[63 - i]);
    put_hashed.emplace_back(HashedKey(keys[i]), keys[63 - i]);
  }
  std::vector<Status> plain_st, hashed_st;
  plain.MultiPut(put_views, &plain_st);
  hashed.MultiPut(put_hashed, &hashed_st);
  expect_same(plain_st, hashed_st);
  EXPECT_GT(count_code(plain_st, StatusCode::kOk), 0u);
  EXPECT_GT(count_code(plain_st, StatusCode::kStaleMetadata), 0u);

  std::vector<std::string_view> get_views(keys.begin(), keys.end());
  std::vector<HashedKey> get_hashed;
  for (const std::string& k : keys) {
    get_hashed.emplace_back(k);
  }
  std::vector<Result<std::string_view>> plain_got, hashed_got;
  plain.MultiGet(get_views, &plain_got);
  hashed.MultiGet(get_hashed, &hashed_got);
  ASSERT_EQ(plain_got.size(), hashed_got.size());
  size_t misses = 0;
  for (size_t i = 0; i < plain_got.size(); ++i) {
    EXPECT_EQ(plain_got[i].status().ToString(),
              hashed_got[i].status().ToString())
        << i;
    if (plain_got[i].ok() && hashed_got[i].ok()) {
      EXPECT_EQ(*plain_got[i], *hashed_got[i]) << i;
    }
    misses += plain_got[i].status().code() == StatusCode::kNotFound ? 1 : 0;
  }
  EXPECT_GT(misses, 0u);

  std::vector<std::string_view> del_views(keys.begin() + 32, keys.end());
  std::vector<HashedKey> del_hashed(get_hashed.begin() + 32, get_hashed.end());
  plain.MultiDelete(del_views, &plain_st);
  hashed.MultiDelete(del_hashed, &hashed_st);
  expect_same(plain_st, hashed_st);
  EXPECT_GT(count_code(plain_st, StatusCode::kNotFound), 0u);
  EXPECT_EQ(plain.pair_count(), hashed.pair_count());
  EXPECT_EQ(plain.used_bytes(), hashed.used_bytes());
}

TEST(KvShardTest, SplitOffMovesUpperSlots) {
  KvShard shard = FullRangeShard();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(shard.Put("key" + std::to_string(i), "v").ok());
  }
  const size_t before = shard.pair_count();
  std::vector<std::pair<std::string, std::string>> moved;
  const size_t n = shard.SplitOff(512, &moved);
  EXPECT_EQ(n, moved.size());
  EXPECT_EQ(shard.pair_count() + moved.size(), before);
  EXPECT_EQ(shard.slot_hi(), 512u);
  // Every moved key hashes to the upper half, every kept key to the lower.
  for (const auto& [k, v] : moved) {
    (void)v;
    EXPECT_GE(KvSlotOf(k, 1024), 512u);
  }
  shard.ForEach([](std::string_view k, std::string_view v) {
    (void)v;
    EXPECT_LT(KvSlotOf(k, 1024), 512u);
  });
  // Roughly half the keys should move under a uniform hash.
  EXPECT_NEAR(static_cast<double>(n), 500.0, 120.0);
}

TEST(KvShardTest, SerializeRoundTrip) {
  KvShard shard = FullRangeShard();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(shard.Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  auto restored =
      KvShard::Deserialize(1 << 16, 0, 1024, 1024, shard.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->pair_count(), 100u);
  EXPECT_EQ((*restored)->used_bytes(), shard.used_bytes());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*(*restored)->Get("k" + std::to_string(i)),
              "v" + std::to_string(i));
  }
}

// --- serde -------------------------------------------------------------------

TEST(SerdeTest, RoundTrip) {
  std::string buf;
  PutU32(&buf, 7);
  PutU64(&buf, 1ULL << 40);
  PutString(&buf, "payload");
  SerdeReader r(buf);
  EXPECT_EQ(*r.ReadU32(), 7u);
  EXPECT_EQ(*r.ReadU64(), 1ULL << 40);
  EXPECT_EQ(*r.ReadString(), "payload");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, TruncationDetected) {
  std::string buf;
  PutString(&buf, "hello");
  // Keep the truncated buffer alive: SerdeReader holds a view, not a copy.
  const std::string truncated = buf.substr(0, buf.size() - 2);
  SerdeReader r(truncated);
  EXPECT_EQ(r.ReadString().status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace jiffy
