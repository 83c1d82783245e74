#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "src/common/logging.h"

namespace jiffy {

int Histogram::BucketFor(int64_t value) {
  if (value < 0) {
    value = 0;
  }
  const uint64_t v = static_cast<uint64_t>(value);
  if (v < (1u << kSubBucketBits)) {
    return static_cast<int>(v);  // Exact buckets for tiny values.
  }
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBucketBits;
  const int sub = static_cast<int>((v >> shift) & ((1 << kSubBucketBits) - 1));
  const int bucket = (msb - kSubBucketBits + 1) * (1 << kSubBucketBits) + sub;
  return std::min(bucket, kNumBuckets - 1);
}

int64_t Histogram::BucketMidpoint(int bucket) {
  if (bucket < (1 << kSubBucketBits)) {
    return bucket;
  }
  const int octave = bucket / (1 << kSubBucketBits);
  const int sub = bucket % (1 << kSubBucketBits);
  const int shift = octave - 1;
  const int64_t base =
      (static_cast<int64_t>((1 << kSubBucketBits) + sub)) << shift;
  const int64_t width = static_cast<int64_t>(1) << shift;
  return base + width / 2;
}

void Histogram::Data::Add(const Data& other, bool with_buckets) {
  if (other.count == 0) {
    return;
  }
  if (with_buckets) {
    if (buckets.empty()) {
      buckets.assign(kNumBuckets, 0);
    }
    for (int i = 0; i < kNumBuckets; ++i) {
      buckets[i] += other.buckets[i];
    }
  }
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
}

void Histogram::Record(int64_t value) {
  if (value < 0) {
    value = 0;
  }
  const int bucket = BucketFor(value);
  Shard& shard = shards_[CurrentThreadId() & (kShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  Data& d = shard.data;
  if (d.buckets.empty()) {
    d.buckets.assign(kNumBuckets, 0);
  }
  d.buckets[bucket]++;
  if (d.count == 0) {
    d.min = d.max = value;
  } else {
    d.min = std::min(d.min, value);
    d.max = std::max(d.max, value);
  }
  d.count++;
  d.sum += static_cast<double>(value);
}

Histogram::Data Histogram::Fold(bool with_buckets) const {
  Data out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.Add(shard.data, with_buckets);
  }
  return out;
}

void Histogram::Merge(const Histogram& other) {
  // Fold `other` first, so no two shard locks are ever held together.
  const Data snapshot = other.Fold(/*with_buckets=*/true);
  Shard& shard = shards_[CurrentThreadId() & (kShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.data.Add(snapshot, /*with_buckets=*/true);
}

uint64_t Histogram::count() const { return Fold(false).count; }

int64_t Histogram::min() const { return Fold(false).min; }

int64_t Histogram::max() const { return Fold(false).max; }

double Histogram::mean() const {
  const Data d = Fold(false);
  return d.count == 0 ? 0.0 : d.sum / static_cast<double>(d.count);
}

int64_t Histogram::Percentile(double q) const {
  const Data d = Fold(true);
  if (d.count == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(d.count - 1)) + 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += d.buckets[i];
    if (seen >= target) {
      return std::clamp(BucketMidpoint(i), d.min, d.max);
    }
  }
  return d.max;
}

std::vector<std::pair<int64_t, double>> Histogram::Cdf() const {
  const Data d = Fold(true);
  std::vector<std::pair<int64_t, double>> out;
  if (d.count == 0) {
    return out;
  }
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (d.buckets[i] == 0) {
      continue;
    }
    seen += d.buckets[i];
    out.emplace_back(BucketMidpoint(i),
                     static_cast<double>(seen) / static_cast<double>(d.count));
  }
  return out;
}

std::string Histogram::Summary(double scale, const std::string& unit) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "p50=%.1f%s p90=%.1f%s p99=%.1f%s max=%.1f%s (n=%llu)",
                static_cast<double>(Percentile(0.50)) / scale, unit.c_str(),
                static_cast<double>(Percentile(0.90)) / scale, unit.c_str(),
                static_cast<double>(Percentile(0.99)) / scale, unit.c_str(),
                static_cast<double>(max()) / scale, unit.c_str(),
                static_cast<unsigned long long>(count()));
  return buf;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.data = Data();
  }
}

}  // namespace jiffy
