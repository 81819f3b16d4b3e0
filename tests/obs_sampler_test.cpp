// obs::Sampler tests: channel semantics on a bare engine, ring overflow
// accounting, and the headline determinism invariant — sampler series must
// be bit-identical regardless of how many threads the sweep pool uses.
#include "src/obs/sampler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/exp/runner.h"
#include "src/exp/sweep.h"
#include "src/obs/counters.h"
#include "src/sim/engine.h"

namespace irs::obs {
namespace {

TEST(ObsSampler, CounterChannelsRecordDeltasGaugesRecordLevels) {
  sim::Engine eng;
  Counters cnt(2);
  std::int64_t level = 0;
  Sampler s(eng, sim::microseconds(100));
  s.add_counter("c", &cnt, Cnt::kWorkUnits);
  s.add_counter("c0", &cnt, Cnt::kWorkUnits, /*shard=*/0);
  s.add_gauge("g", [&]() { return level; });
  s.start();

  // Two increments land in tick 1's window, none in tick 2's — and series
  // are sparse, so the idle tick 2 pushes nothing anywhere.
  eng.schedule(sim::microseconds(10), [&]() {
    cnt.inc(0, Cnt::kWorkUnits);
    cnt.inc(1, Cnt::kWorkUnits);
    level = 5;
  });
  eng.run_until(sim::microseconds(250));

  ASSERT_EQ(s.n_series(), 3u);
  const auto c = s.series(0).samples();
  ASSERT_EQ(c.size(), 1u);  // tick 2's zero delta is implicit
  EXPECT_EQ(c[0].when, sim::microseconds(100));
  EXPECT_EQ(c[0].value, 2);  // fold across shards
  const auto c0 = s.series(1).samples();
  ASSERT_EQ(c0.size(), 1u);
  EXPECT_EQ(c0[0].value, 1);  // shard 0 only
  const auto g = s.series(2).samples();
  ASSERT_EQ(g.size(), 1u);  // level unchanged at tick 2 -> carried forward
  EXPECT_EQ(g[0].value, 5);
}

TEST(ObsSampler, RateChannelDeltasANonCounterSource) {
  sim::Engine eng;
  std::int64_t cum = 0;
  Sampler s(eng, sim::microseconds(100));
  s.add_rate("r", [&]() { return cum; });
  s.start();
  eng.schedule(sim::microseconds(50), [&]() { cum = 7; });
  eng.schedule(sim::microseconds(150), [&]() { cum = 10; });
  eng.run_until(sim::microseconds(250));
  const auto r = s.series(0).samples();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].value, 7);
  EXPECT_EQ(r[1].value, 3);
}

TEST(ObsSampler, SeriesRingDropsOldestAndCounts) {
  Series s("x", 3);
  for (int i = 0; i < 5; ++i) s.push(i, i * 10);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.dropped(), 2u);
  EXPECT_EQ(s.total(), 5u);
  const auto out = s.samples();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value, 20);  // oldest retained
  EXPECT_EQ(out[2].value, 40);  // newest
}

TEST(ObsSampler, DigestReflectsSeriesContent) {
  sim::Engine eng;
  Sampler a(eng, sim::microseconds(100));
  Sampler b(eng, sim::microseconds(100));
  std::int64_t va = 0, vb = 0;
  a.add_gauge("g", [&]() { return va; });
  b.add_gauge("g", [&]() { return vb; });
  a.sample_now();
  b.sample_now();
  EXPECT_EQ(a.digest(), b.digest());
  va = 1;
  a.sample_now();
  vb = 2;
  b.sample_now();
  EXPECT_NE(a.digest(), b.digest());
}

TEST(ObsSampler, SamplingDoesNotPerturbTheRun) {
  exp::ScenarioConfig cfg;
  cfg.fg = "blackscholes";
  cfg.fg_threads = 2;
  cfg.n_vcpus = 2;
  cfg.n_pcpus = 2;
  cfg.work_scale = 0.05;
  cfg.seed = 11;
  const exp::RunResult plain = exp::run_scenario(cfg);
  cfg.sample_period = sim::microseconds(500);
  const exp::RunResult sampled = exp::run_scenario(cfg);
  EXPECT_EQ(plain.fg_makespan, sampled.fg_makespan);
  EXPECT_EQ(plain.lhp, sampled.lhp);
  EXPECT_EQ(plain.sa_sent, sampled.sa_sent);
  EXPECT_EQ(plain.sampler_digest, 0u);
  EXPECT_NE(sampled.sampler_digest, 0u);
}

TEST(ObsSampler, SeriesByteIdenticalAcrossRepeatRuns) {
  exp::ScenarioConfig cfg;
  cfg.fg = "blackscholes";
  cfg.fg_threads = 2;
  cfg.n_vcpus = 2;
  cfg.n_pcpus = 2;
  cfg.work_scale = 0.05;
  cfg.seed = 3;
  exp::TraceDump d1, d2;
  const exp::RunResult r1 =
      exp::run_scenario(cfg, exp::RunCapture{.dump = &d1});
  const exp::RunResult r2 =
      exp::run_scenario(cfg, exp::RunCapture{.dump = &d2});
  EXPECT_EQ(r1.sampler_digest, r2.sampler_digest);
  ASSERT_EQ(d1.series.size(), d2.series.size());
  ASSERT_GE(d1.series.size(), 4u);  // >= 4 counter tracks for the exporter
  for (std::size_t i = 0; i < d1.series.size(); ++i) {
    EXPECT_EQ(d1.series[i].name, d2.series[i].name);
    EXPECT_EQ(d1.series[i].dropped, d2.series[i].dropped);
    ASSERT_EQ(d1.series[i].samples.size(), d2.series[i].samples.size());
    for (std::size_t j = 0; j < d1.series[i].samples.size(); ++j) {
      EXPECT_EQ(d1.series[i].samples[j].when, d2.series[i].samples[j].when);
      EXPECT_EQ(d1.series[i].samples[j].value, d2.series[i].samples[j].value);
    }
  }
}

// Also runs under the obs_pipeline_tsan CTest job (scripts/tsan.sh): the
// digest comparison races if sampling leaks state across pool workers.
TEST(SweepSampler, DigestsBitIdenticalAcrossThreadCounts) {
  exp::ScenarioConfig cfg;
  cfg.fg = "blackscholes";
  cfg.fg_threads = 2;
  cfg.n_vcpus = 2;
  cfg.n_pcpus = 2;
  cfg.work_scale = 0.05;
  cfg.sample_period = sim::microseconds(500);
  const std::vector<exp::ScenarioConfig> grid = exp::seed_grid(cfg, 6);
  const std::vector<exp::RunResult> serial = exp::run_sweep(grid, 1);
  const std::vector<exp::RunResult> parallel = exp::run_sweep(grid, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NE(serial[i].sampler_digest, 0u);
    EXPECT_EQ(serial[i].sampler_digest, parallel[i].sampler_digest)
        << "series diverged at run " << i;
  }
}

}  // namespace
}  // namespace irs::obs
