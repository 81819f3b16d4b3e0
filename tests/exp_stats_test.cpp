// Streaming sweep statistics: StatAccumulator's moments and percentile
// sketch, SweepStats folding, and JSON rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/exp/stats.h"
#include "src/sim/rng.h"

namespace {

using namespace irs;

TEST(StatAccumulator, EmptyIsAllZeros) {
  exp::StatAccumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.stddev(), 0.0);
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
  EXPECT_EQ(a.percentile(50), 0.0);
}

TEST(StatAccumulator, MomentsAndExtremaAreExact) {
  exp::StatAccumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(v);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 2.0);  // population stddev of the classic set
  EXPECT_EQ(a.min(), 2.0);
  EXPECT_EQ(a.max(), 9.0);
}

TEST(StatAccumulator, PercentilesWithinSketchError) {
  exp::StatAccumulator a;
  // 1..1000: the exact p-th percentile is ~10p. The log-linear sketch
  // guarantees ~3 % relative error (half a mantissa segment).
  for (int i = 1; i <= 1000; ++i) a.add(static_cast<double>(i));
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const double exact = 10.0 * p;
    EXPECT_NEAR(a.percentile(p), exact, 0.03 * exact) << "p" << p;
  }
  // Clamped ends are exact.
  EXPECT_EQ(a.percentile(0), 1.0);
  EXPECT_EQ(a.percentile(100), 1000.0);
}

TEST(StatAccumulator, HandlesNegativeAndZeroValues) {
  exp::StatAccumulator a;
  for (double v : {-100.0, -10.0, 0.0, 10.0, 100.0}) a.add(v);
  EXPECT_EQ(a.min(), -100.0);
  EXPECT_EQ(a.max(), 100.0);
  EXPECT_NEAR(a.mean(), 0.0, 1e-12);  // Welford rounds, not exact
  // Median of the five values is 0; the sketch stores zero exactly.
  EXPECT_EQ(a.percentile(50), 0.0);
  // Tails clamp to the exact extrema, not bucket midpoints.
  EXPECT_GE(a.percentile(1), -100.0);
  EXPECT_LE(a.percentile(99), 100.0);
}

TEST(StatAccumulator, ConstantStreamHasZeroSpread) {
  exp::StatAccumulator a;
  for (int i = 0; i < 1000; ++i) a.add(42.5);
  EXPECT_DOUBLE_EQ(a.mean(), 42.5);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
  EXPECT_EQ(a.percentile(50), 42.5);
  EXPECT_EQ(a.percentile(99), 42.5);
}

TEST(StatAccumulator, SingleSampleIsItsOwnEverything) {
  exp::StatAccumulator a;
  a.add(3.25);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.25);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
  EXPECT_EQ(a.min(), 3.25);
  EXPECT_EQ(a.max(), 3.25);
  for (double p : {0.0, 50.0, 99.9, 100.0}) {
    EXPECT_EQ(a.percentile(p), 3.25) << "p" << p;
  }
}

TEST(StatAccumulator, ParetoTailStaysWithinSketchError) {
  // Heavy-tailed input is where a log-linear sketch could drift: the tail
  // spans many octaves with few samples each. Pareto(alpha=1.5) via
  // inverse transform; compare against exact order statistics.
  sim::Rng rng(99);
  exp::StatAccumulator a;
  std::vector<double> vals;
  for (int i = 0; i < 200000; ++i) {
    const double u = (static_cast<double>(rng.next_below(1u << 30)) + 0.5) /
                     static_cast<double>(1u << 30);
    const double v = std::pow(1.0 - u, -1.0 / 1.5);  // xm = 1
    vals.push_back(v);
    a.add(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double rank = p / 100.0 * static_cast<double>(vals.size() - 1);
    const double exact = vals[static_cast<std::size_t>(rank)];
    EXPECT_NEAR(a.percentile(p), exact, 0.04 * exact) << "p" << p;
  }
  EXPECT_EQ(a.max(), vals.back());
}

exp::RunResult fake_result(sim::Rng* rng, bool finished = true) {
  exp::RunResult r;
  r.finished = finished;
  r.fg_makespan = static_cast<sim::Duration>(1e9 + rng->next_below(1000000));
  r.fg_util_vs_fair = 0.5 + rng->next_double() * 0.5;
  r.fg_efficiency = rng->next_double();
  r.bg_progress_rate = rng->next_double();
  r.throughput = rng->next_double() * 1e4;
  r.lat_mean = static_cast<sim::Duration>(rng->next_below(500000));
  r.lat_p99 = r.lat_mean * 3;
  r.lhp = static_cast<std::uint64_t>(rng->next_below(40));
  r.lwp = static_cast<std::uint64_t>(rng->next_below(40));
  r.irs_migrations = static_cast<std::uint64_t>(rng->next_below(10));
  r.sa_sent = static_cast<std::uint64_t>(rng->next_below(100));
  r.sa_acked = r.sa_sent / 2;
  r.sa_delay_avg = static_cast<sim::Duration>(rng->next_below(20000));
  return r;
}

TEST(SweepStats, CountsRunsAndFinished) {
  sim::Rng rng(11);
  exp::SweepStats s;
  for (int i = 0; i < 10; ++i) s.add(fake_result(&rng, i % 3 != 0));
  EXPECT_EQ(s.runs(), 10u);
  EXPECT_EQ(s.finished(), 6u);
  ASSERT_FALSE(exp::SweepStats::metric_names().empty());
  EXPECT_EQ(s.metric(0).count(), 10u);
}

TEST(SweepStats, JsonHasEveryMetricInOrder) {
  sim::Rng rng(12);
  exp::SweepStats s;
  for (int i = 0; i < 5; ++i) s.add(fake_result(&rng));
  const std::string json = exp::sweep_stats_json(s);
  EXPECT_NE(json.find("\"runs\":5"), std::string::npos);
  EXPECT_NE(json.find("\"finished\":5"), std::string::npos);
  std::size_t pos = 0;
  for (const std::string& name : exp::SweepStats::metric_names()) {
    const std::size_t at = json.find("\"" + name + "\":", pos);
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_GE(at, pos) << name << " out of order";
    pos = at;
  }
  for (const char* key : {"\"count\":", "\"mean\":", "\"stddev\":",
                          "\"min\":", "\"max\":", "\"p50\":", "\"p90\":",
                          "\"p99\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
