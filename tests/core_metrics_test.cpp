// Unit tests for core measurement utilities, chiefly the exact-percentile
// histogram: known quantiles of hand-built sample sets, interpolation
// between ranks, const-correct selection, and agreement with the
// sort-based formula on random sample sets.
#include "src/core/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

namespace irs::core {
namespace {

Histogram from_samples(std::initializer_list<sim::Duration> vs) {
  Histogram h;
  for (auto v : vs) h.add(v);
  return h;
}

TEST(Histogram, EmptyIsAllZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(50.0), 0);
}

TEST(Histogram, SingleSampleAtEveryPercentile) {
  const Histogram h = from_samples({42});
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(h.percentile(p), 42) << "p=" << p;
  }
}

TEST(Histogram, MedianOfTwoInterpolates) {
  // Nearest-rank would return one of the endpoints; the linear-interpolated
  // convention (numpy default) gives the midpoint.
  const Histogram h = from_samples({10, 20});
  EXPECT_EQ(h.percentile(50.0), 15);
  EXPECT_EQ(h.percentile(0.0), 10);
  EXPECT_EQ(h.percentile(100.0), 20);
  EXPECT_EQ(h.percentile(25.0), 13);  // llround(10 + 0.25 * 10)
}

TEST(Histogram, KnownQuantilesOfEvenlySpacedSamples) {
  // 0, 10, ..., 90: rank = p/100 * 9.
  Histogram h;
  for (int i = 9; i >= 0; --i) h.add(10 * i);  // unsorted insertion order
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(100.0), 90);
  EXPECT_EQ(h.percentile(50.0), 45);  // rank 4.5 -> between 40 and 50
  EXPECT_EQ(h.percentile(25.0), 23);  // rank 2.25 -> llround(22.5)
  EXPECT_EQ(h.percentile(75.0), 68);  // rank 6.75 -> llround(67.5)
  EXPECT_EQ(h.percentile(99.0), 89);  // rank 8.91 -> llround(89.1)
}

TEST(Histogram, ExactRankNeedsNoInterpolation) {
  const Histogram h = from_samples({1, 2, 3, 4, 5});
  EXPECT_EQ(h.percentile(25.0), 2);  // rank exactly 1
  EXPECT_EQ(h.percentile(50.0), 3);  // rank exactly 2
  EXPECT_EQ(h.percentile(75.0), 4);  // rank exactly 3
}

TEST(Histogram, OutOfRangePercentileClamps) {
  const Histogram h = from_samples({5, 15});
  EXPECT_EQ(h.percentile(-10.0), 5);
  EXPECT_EQ(h.percentile(250.0), 15);
}

TEST(Histogram, PercentileIsConstAndSurvivesInterleavedAdds) {
  Histogram h;
  h.add(30);
  h.add(10);
  const Histogram& ch = h;  // percentile must be callable through const ref
  EXPECT_EQ(ch.percentile(100.0), 30);
  h.add(50);  // after a percentile() reordered the samples
  EXPECT_EQ(ch.percentile(100.0), 50);
  EXPECT_EQ(ch.percentile(50.0), 30);
  EXPECT_EQ(ch.mean(), 30);
  EXPECT_EQ(ch.max(), 50);
}

/// The textbook formula percentile() must equal: sort, then interpolate
/// between the samples of ranks floor(r) and floor(r) + 1.
sim::Duration sorted_percentile(std::vector<sim::Duration> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 >= v.size()) return v[lo];
  const double below = static_cast<double>(v[lo]);
  const double above = static_cast<double>(v[lo + 1]);
  return static_cast<sim::Duration>(
      std::llround(below + frac * (above - below)));
}

TEST(Histogram, SelectionMatchesTheSortedFormulaOnRandomSamples) {
  std::mt19937_64 rng(20171211);
  for (std::size_t n : {1, 2, 3, 7, 100, 1000, 4099}) {
    for (int trial = 0; trial < 20; ++trial) {
      // Few distinct values on odd trials, so most ranks sit among
      // duplicates.
      const std::uint64_t span = trial % 2 == 1 ? 5 : 1'000'000;
      std::vector<sim::Duration> v(n);
      Histogram h;
      for (auto& x : v) {
        x = static_cast<sim::Duration>(rng() % span);
        h.add(x);
      }
      for (double p : {0.0, 50.0, 99.0, 99.9, 100.0}) {
        EXPECT_EQ(h.percentile(p), sorted_percentile(v, p))
            << "n=" << n << " trial=" << trial << " p=" << p;
      }
      EXPECT_EQ(h.max(), *std::max_element(v.begin(), v.end()));
    }
  }
}

TEST(Histogram, MeanDoesNotOverflowInt64) {
  // Three samples of ~9e18 ns sum to ~2.7e19, past INT64_MAX (~9.2e18):
  // an int64 accumulator would wrap negative. The 128-bit accumulator
  // returns the exact mean.
  const sim::Duration big = 9'000'000'000'000'000'000;  // 9e18, fits int64
  const Histogram h = from_samples({big, big, big});
  EXPECT_EQ(h.mean(), big);
  // Asymmetric case: exact integer division of the 128-bit sum.
  const Histogram h2 = from_samples({big, big - 6, big - 3});
  EXPECT_EQ(h2.mean(), big - 3);
}

TEST(Histogram, ClearResets) {
  Histogram h = from_samples({7, 9});
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50.0), 0);
}

TEST(Metrics, ImprovementAndGainPct) {
  EXPECT_DOUBLE_EQ(improvement_pct(200.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(improvement_pct(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(gain_pct(100.0, 150.0), 50.0);
  EXPECT_DOUBLE_EQ(gain_pct(0.0, 150.0), 0.0);
}

}  // namespace
}  // namespace irs::core
