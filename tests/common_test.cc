// Unit tests for src/common: Status/Result, clocks, RNG + Zipf, histogram,
// hashing.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/common/status.h"

namespace jiffy {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(OutOfMemory("").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(LeaseExpired("").code(), StatusCode::kLeaseExpired);
  EXPECT_EQ(PermissionDenied("").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(StaleMetadata("").code(), StatusCode::kStaleMetadata);
  EXPECT_EQ(Unavailable("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(FailedPrecondition("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Timeout("").code(), StatusCode::kTimeout);
  EXPECT_EQ(Internal("").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> Doubled(Result<int> in) {
  JIFFY_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(NotFound("x")).status().code(), StatusCode::kNotFound);
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.AdvanceBy(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(120);  // Backwards: no-op.
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.Now(), 500);
}

TEST(SimClockTest, SleepWakesOnAdvance) {
  SimClock clock(0);
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepFor(100);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  clock.AdvanceBy(100);
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(RealClockTest, MonotoneAndSleeps) {
  RealClock* clock = RealClock::Instance();
  const TimeNs a = clock->Now();
  clock->SleepFor(1 * kMillisecond);
  const TimeNs b = clock->Now();
  EXPECT_GE(b - a, 1 * kMillisecond);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, LogNormalPositive) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.NextLogNormal(0.0, 2.0), 0.0);
  }
}

TEST(ZipfTest, RangeAndSkew) {
  ZipfSampler zipf(1000, 0.99, 5);
  std::vector<uint64_t> counts(1000, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const uint64_t k = zipf.Next();
    ASSERT_LT(k, 1000u);
    counts[k]++;
  }
  // Rank-0 should dominate rank-100 heavily under theta≈1.
  EXPECT_GT(counts[0], counts[100] * 10);
  // And the head should hold a large share of mass.
  uint64_t head = 0;
  for (int i = 0; i < 10; ++i) {
    head += counts[i];
  }
  EXPECT_GT(static_cast<double>(head) / n, 0.2);
}

TEST(ZipfTest, ThetaNearOneDoesNotDivideByZero) {
  ZipfSampler zipf(100, 1.0, 6);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Next(), 100u);
  }
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_TRUE(h.Cdf().empty());
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram h;
  for (int i = 1; i <= 10; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 10);
  EXPECT_NEAR(h.mean(), 5.5, 1e-9);
  EXPECT_EQ(h.Percentile(0.0), 1);
  EXPECT_EQ(h.Percentile(1.0), 10);
}

TEST(HistogramTest, PercentileWithinRelativeError) {
  Histogram h;
  Rng rng(9);
  for (int i = 0; i < 100000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextBelow(1000000)) + 1);
  }
  const int64_t p50 = h.Percentile(0.5);
  EXPECT_NEAR(static_cast<double>(p50), 500000.0, 500000.0 * 0.05);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

TEST(HistogramTest, CdfIsMonotone) {
  Histogram h;
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextBelow(100000)));
  }
  double prev = 0.0;
  for (const auto& [v, frac] : h.Cdf()) {
    (void)v;
    EXPECT_GE(frac, prev);
    prev = frac;
  }
  EXPECT_NEAR(prev, 1.0, 1e-12);
}

TEST(HashTest, StableAndSpread) {
  EXPECT_EQ(Fnv1a64("jiffy"), Fnv1a64("jiffy"));
  EXPECT_NE(Fnv1a64("jiffy"), Fnv1a64("jiffz"));
}

TEST(HistogramTest, EmptySummaryAndCdfEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 0);
  EXPECT_TRUE(h.Cdf().empty());
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  // Summary of an empty histogram must not divide by zero.
  EXPECT_FALSE(h.Summary(1000.0, "us").empty());
}

TEST(HistogramTest, SingleSample) {
  Histogram h;
  h.Record(777);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 777);
  EXPECT_EQ(h.max(), 777);
  EXPECT_NEAR(h.mean(), 777.0, 1e-9);
  // Every quantile of a one-sample distribution is that sample (within
  // bucket resolution for large values; 777 is in the exact range).
  EXPECT_EQ(h.Percentile(0.0), 777);
  EXPECT_EQ(h.Percentile(0.5), 777);
  EXPECT_EQ(h.Percentile(1.0), 777);
  auto cdf = h.Cdf();
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_NEAR(cdf[0].second, 1.0, 1e-12);
}

TEST(HistogramTest, MinMaxAfterReset) {
  Histogram h;
  h.Record(5);
  h.Record(500000);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  // Stale extrema must not leak into post-reset samples.
  h.Record(42);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
}

TEST(HistogramTest, MergeDisjointRanges) {
  Histogram lo, hi;
  for (int i = 1; i <= 100; ++i) {
    lo.Record(i);              // [1, 100]
    hi.Record(1000000 + i);    // [1000001, 1000100]
  }
  lo.Merge(hi);
  EXPECT_EQ(lo.count(), 200u);
  EXPECT_EQ(lo.min(), 1);
  EXPECT_EQ(lo.max(), 1000100);
  // The median sits at the boundary between the two populations.
  EXPECT_LE(lo.Percentile(0.49), 100);
  EXPECT_GE(lo.Percentile(0.51), 1000000);
  // Merging into an empty histogram adopts the source's extrema.
  Histogram empty;
  empty.Merge(lo);
  EXPECT_EQ(empty.count(), 200u);
  EXPECT_EQ(empty.min(), 1);
  EXPECT_EQ(empty.max(), 1000100);
}

TEST(HistogramTest, SelfMergeDoublesCounts) {
  // Documented in the Merge locking contract: h.Merge(h) is safe (the lock
  // is taken twice sequentially, never recursively) and doubles counts.
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Merge(h);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 20);
}

TEST(HistogramTest, ConcurrentCrossMergeDoesNotDeadlock) {
  // T1 runs a.Merge(b) while T2 runs b.Merge(a): the snapshot-then-apply
  // locking (never holding both mutexes) makes any interleaving safe.
  Histogram a, b;
  for (int i = 0; i < 1000; ++i) {
    a.Record(i);
    b.Record(1000000 + i);
  }
  // Few iterations on purpose: cross-merges compound counts Fibonacci-style
  // (each merge re-adds everything the other side absorbed so far).
  std::thread t1([&] {
    for (int i = 0; i < 10; ++i) {
      a.Merge(b);
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 10; ++i) {
      b.Merge(a);
    }
  });
  t1.join();
  t2.join();
  EXPECT_GE(a.count(), 1000u + 10 * 1000u);
  EXPECT_GE(b.count(), 1000u + 10 * 1000u);
}

TEST(HistogramTest, ThreadSafeRecording) {
  // Four threads record disjoint known values, each into its own shard. Every
  // reading must equal that of a single-threaded histogram fed the same
  // values, directly and after a Merge; Reset() must empty every shard.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  const auto value = [](int t, int i) -> int64_t {
    return (static_cast<int64_t>(t) * kPerThread + i) * 97;
  };
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &value, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(value(t, i));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  Histogram reference;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      reference.Record(value(t, i));
    }
  }
  const auto expect_same = [&reference](const Histogram& got) {
    EXPECT_EQ(got.count(), reference.count());
    EXPECT_EQ(got.min(), reference.min());
    EXPECT_EQ(got.max(), reference.max());
    EXPECT_EQ(got.mean(), reference.mean());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(got.Percentile(q), reference.Percentile(q)) << q;
    }
    EXPECT_EQ(got.Cdf(), reference.Cdf());
  };
  EXPECT_EQ(h.count(), 40000u);
  expect_same(h);
  Histogram merged;
  merged.Merge(h);
  expect_same(merged);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_TRUE(h.Cdf().empty());
}

}  // namespace
}  // namespace jiffy
