// Unit tests for the deterministic RNG.
#include "src/sim/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace irs::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  // Must not be stuck at zero (xoshiro all-zero state would be).
  std::set<std::uint64_t> vals;
  for (int i = 0; i < 10; ++i) vals.insert(r.next_u64());
  EXPECT_GT(vals.size(), 5u);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  double mn = 1.0, mx = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    sum += v;
  }
  EXPECT_LT(mn, 0.01);
  EXPECT_GT(mx, 0.99);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NextBelowCoversItsRange) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, JitteredStaysWithinFraction) {
  Rng r(13);
  const Duration mean = milliseconds(10);
  for (int i = 0; i < 5000; ++i) {
    const Duration v = r.jittered(mean, 0.2);
    EXPECT_GE(v, static_cast<Duration>(mean * 0.8) - 1);
    EXPECT_LE(v, static_cast<Duration>(mean * 1.2) + 1);
  }
}

TEST(Rng, JitteredZeroMeanIsZero) {
  Rng r(13);
  EXPECT_EQ(r.jittered(0, 0.5), 0);
  EXPECT_EQ(r.jittered(-5, 0.5), 0);
}

TEST(Rng, JitteredMeanConverges) {
  Rng r(17);
  const Duration mean = microseconds(100);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.jittered(mean, 0.3));
  EXPECT_NEAR(sum / n / static_cast<double>(mean), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(19);
  const Duration mean = milliseconds(2);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const Duration v = r.exponential(mean);
    EXPECT_GE(v, 0);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n / static_cast<double>(mean), 1.0, 0.05);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(23);
  Rng c1 = parent.fork();
  Rng c2 = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(31), b(31);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

TEST(Rng, ReseedResetsStream) {
  Rng r(5);
  const auto first = r.next_u64();
  r.next_u64();
  r.reseed(5);
  EXPECT_EQ(r.next_u64(), first);
}

}  // namespace
}  // namespace irs::sim
