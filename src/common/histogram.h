// Latency/size histograms with percentile queries and CDF export.
//
// Benchmarks record nanosecond samples into a Histogram and print either
// percentiles (p50/p99/...) or a full CDF in the same form as the paper's
// figures. Log-bucketed to cover 1 ns .. ~100 s with bounded memory while
// keeping relative error under ~1 %.
//
// Sharded per thread, like obs::Counter: Record() locks only the shard its
// thread id picks, so concurrent recorders (the closed-loop clients, the
// transports they share) stop serializing on one mutex and one cache line.
// Each shard has its own mutex and allocates its bucket array on first use;
// a histogram recorded from one thread holds one array, as an unsharded one
// would. Readers fold every shard, one lock at a time, and report exactly
// what a single histogram fed the same samples would. The cost moves to the
// readers: each query walks up to kShards bucket arrays.

#ifndef SRC_COMMON_HISTOGRAM_H_
#define SRC_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace jiffy {

class Histogram {
 public:
  // Recording shards; the same count as obs::Counter's. Power of two.
  static constexpr size_t kShards = 8;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Adds one sample (negative samples are clamped to 0). Thread-safe.
  void Record(int64_t value);

  // Merges `other` into this histogram.
  //
  // Locking contract (audited — keep it this way): no code path holds two
  // shard locks at once. Merge folds `other` into a local snapshot, taking
  // and releasing each of other's shard locks in turn, and only then locks
  // the calling thread's shard of this histogram to add the snapshot. So
  //   - concurrent cross-merges (T1: a.Merge(b) while T2: b.Merge(a)) cannot
  //     deadlock regardless of ordering;
  //   - self-merge h.Merge(h) is safe (each non-recursive shard mutex is
  //     taken sequentially) and, by design, doubles every count;
  //   - a merge is NOT atomic with respect to concurrent Record() on
  //     `other`: samples recorded after a shard was folded are not copied.
  //     Merge quiesced histograms when an exact total matters.
  // Readers and Reset() likewise visit the shards one lock at a time, so a
  // read concurrent with Record() sees each shard at a different instant.
  void Merge(const Histogram& other);

  uint64_t count() const;
  int64_t min() const;
  int64_t max() const;
  double mean() const;

  // Value at quantile q in [0, 1]; returns 0 for an empty histogram.
  int64_t Percentile(double q) const;

  // (value, cumulative_fraction) pairs, one per non-empty bucket — ready to
  // plot as a CDF.
  std::vector<std::pair<int64_t, double>> Cdf() const;

  // "p50=... p90=... p99=... max=..." with values divided by `scale`
  // (e.g. 1000 for microseconds) and suffixed with `unit`.
  std::string Summary(double scale, const std::string& unit) const;

  // Empties every shard.
  void Reset();

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per octave.
  static constexpr int kNumBuckets = 64 * (1 << kSubBucketBits);

  static int BucketFor(int64_t value);
  static int64_t BucketMidpoint(int bucket);

  // Samples and their summary. `buckets` stays empty until the first
  // sample (or merge) lands, so idle shards cost no bucket array.
  struct Data {
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    int64_t min = 0;
    int64_t max = 0;
    double sum = 0.0;  // Exact while the sum of samples is below 2^53.

    // Adds `other`'s samples (its buckets only when `with_buckets`).
    void Add(const Data& other, bool with_buckets);
  };
  struct alignas(64) Shard {
    mutable std::mutex mu;
    Data data;
  };

  // Every shard folded into one, each locked in turn; bucket arrays only
  // when the caller needs them.
  Data Fold(bool with_buckets) const;

  Shard shards_[kShards];
};

}  // namespace jiffy

#endif  // SRC_COMMON_HISTOGRAM_H_
