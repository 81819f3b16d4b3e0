// obs::Sampler tests: channel semantics on a bare engine, ring overflow
// accounting, every standard series pinned by value on four fixtures (with
// the per-vCPU counts behind them adding up to the host totals), and the
// headline determinism invariant — sampler series must be bit-identical
// regardless of how many threads the sweep pool uses.
#include "src/obs/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/world.h"
#include "src/exp/runner.h"
#include "src/exp/sweep.h"
#include "src/wl/registry.h"
#include "src/sim/engine.h"

namespace irs::obs {
namespace {

TEST(ObsSampler, CounterChannelsRecordDeltasGaugesRecordLevels) {
  sim::Engine eng;
  std::uint64_t events = 3;  // counted before registration
  std::int64_t level = 0;
  Sampler s(eng, sim::microseconds(100));
  s.add_rate("c", [&]() { return static_cast<std::int64_t>(events); });
  s.add_gauge("g", [&]() { return level; });
  s.start();

  // Two increments land in tick 1's window, none in tick 2's — and series
  // are sparse, so the idle tick 2 pushes nothing anywhere.
  eng.schedule(sim::microseconds(10), [&]() {
    events += 2;
    level = 5;
  });
  eng.run_until(sim::microseconds(250));

  ASSERT_EQ(s.n_series(), 2u);
  const auto c = s.series(0).samples();
  ASSERT_EQ(c.size(), 1u);  // tick 2's zero delta is implicit
  EXPECT_EQ(c[0].when, sim::microseconds(100));
  EXPECT_EQ(c[0].value, 2);  // the delta since registration, not the count
  const auto g = s.series(1).samples();
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
  Series s("x");
  const auto n = static_cast<std::int64_t>(kSeriesCapacity) + 2;
  for (std::int64_t i = 0; i < n; ++i) s.push(i, i * 10);
  EXPECT_EQ(s.size(), kSeriesCapacity);
  EXPECT_EQ(s.dropped(), 2u);
  EXPECT_EQ(s.total(), static_cast<std::uint64_t>(n));
  const auto out = s.samples();
  ASSERT_EQ(out.size(), kSeriesCapacity);
  EXPECT_EQ(out.front().value, 20);           // oldest retained
  EXPECT_EQ(out.back().value, (n - 1) * 10);  // newest
}

TEST(ObsSampler, RejectsANonPositivePeriod) {
  // A period <= 0 has no cadence: it fails, never falls back to a default.
  sim::Engine eng;
  for (const sim::Duration period : {sim::Duration{0}, sim::Duration{-1}}) {
    try {
      Sampler s(eng, period);
      ADD_FAILURE() << "period " << period << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("period must be > 0"),
                std::string::npos)
          << e.what();
    }
  }
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
  cfg.n_threads = 2;
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
  cfg.n_threads = 2;
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

// Every sampler series pinned by value. No registered grid turns the
// sampler on, so otherwise a series is only ever compared with another run
// of the same code. Between them the four seed-1 fixtures light every
// track: lock-holder preemptions (bodytrack under Xen at 2-inter: 10 LHP),
// lock-waiter preemptions (CG under Xen: 2 LWP), scheduler activations per
// vCPU (streamcluster under IRS: 19 SAs), and per-host prefixed series on
// a cluster (the tier-1 cluster smoke: ab under the irs policy, one 2-vCPU
// hog VM). A digest here moves only when a series does.
struct SeriesGolden {
  const char* name;
  exp::ScenarioConfig cfg;
  std::uint64_t digest;

  friend void PrintTo(const SeriesGolden& g, std::ostream* os) {
    *os << g.name;
  }
};

exp::ScenarioConfig golden_fixture(const char* fg, core::Strategy s,
                                   int n_inter, int n_hosts = 0) {
  exp::ScenarioConfig cfg;
  cfg.fg = fg;
  cfg.strategy = s;
  cfg.n_inter = n_inter;
  cfg.cluster.n_hosts = n_hosts;
  cfg.sample_period = Sampler::kDefaultPeriod;
  return cfg;
}

const SeriesGolden kSeriesGolden[] = {
    {"bodytrack_xen_2inter",
     golden_fixture("bodytrack", core::Strategy::kBaseline, 2),
     0xbcc1fbb226aa27dcULL},
    {"cg_xen", golden_fixture("CG", core::Strategy::kBaseline, 1),
     0xcae41a346d62aa0fULL},
    {"streamcluster_irs",
     golden_fixture("streamcluster", core::Strategy::kIrs, 1),
     0xe6e4b47d4577ae34ULL},
    {"cluster_ab_irs",
     golden_fixture("ab", core::Strategy::kIrs, 2, /*n_hosts=*/2),
     0x4fdca1abc69a0377ULL},
};

class SamplerGolden : public ::testing::TestWithParam<SeriesGolden> {};

TEST_P(SamplerGolden, DigestMatchesRecordedValue) {
  const exp::RunResult r = exp::run_scenario(GetParam().cfg);
  EXPECT_EQ(r.sampler_digest, GetParam().digest)
      << std::hex << "0x" << r.sampler_digest;
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, SamplerGolden, ::testing::ValuesIn(kSeriesGolden),
    [](const ::testing::TestParamInfo<SeriesGolden>& p) {
      return std::string(p.param.name);
    });

/// Runs a golden fixture the way exp::run_scenario does, but keeps the
/// world alive long enough to hand every host to `check`. Returns the
/// sampler digest (XOR over hosts, as the runner folds it), which ties the
/// run to the recorded value.
std::uint64_t run_fixture(const exp::ScenarioConfig& cfg,
                          const std::function<void(core::HostNode&)>& check) {
  hv::VmConfig fg_vm;
  fg_vm.name = "fg";
  fg_vm.n_vcpus = cfg.n_vcpus;
  for (int i = 0; i < cfg.n_vcpus; ++i) fg_vm.pin_map.push_back(i);
  if (cfg.cluster.n_hosts >= 2) {
    cluster::ClusterConfig cc;
    cc.n_hosts = cfg.cluster.n_hosts;
    cc.strategy = cfg.strategy;
    cc.sample_period = cfg.sample_period;
    cluster::Cluster cl(cc);
    const cluster::CvmId fg = cl.add_vm(0, fg_vm, /*irs_capable=*/true);
    cl.set_protected(fg);
    cl.node(fg.host).attach(fg.vm,
                            wl::make_workload(cfg.fg, wl::WorkloadOptions{}));
    cl.add_migratable_hog("bg0", cfg.n_inter, cfg.n_inter);
    cl.start();
    cl.run_until_finished(fg, exp::kRunTimeout);
    std::uint64_t digest = 0;
    for (int h = 0; h < cl.n_hosts(); ++h) {
      check(cl.node(h));
      digest ^= cl.node(h).sampler()->digest();
    }
    return digest;
  }
  core::WorldConfig wc;
  wc.strategy = cfg.strategy;
  wc.sample_period = cfg.sample_period;
  core::World world(wc);
  const hv::VmId fg = world.add_vm(fg_vm, /*irs_capable=*/true);
  world.attach(fg, wl::make_workload(cfg.fg, wl::WorkloadOptions{}));
  hv::VmConfig bg_vm;
  bg_vm.name = "bg0";
  bg_vm.n_vcpus = cfg.n_inter;
  for (int i = 0; i < cfg.n_inter; ++i) bg_vm.pin_map.push_back(i);
  const hv::VmId bg = world.add_vm(bg_vm, /*irs_capable=*/false);
  wl::WorkloadOptions bg_opts;
  bg_opts.n_threads = cfg.n_inter;
  world.attach(bg, wl::make_workload(cfg.bg, bg_opts, /*endless=*/true));
  world.start();
  world.run_until_finished(fg, exp::kRunTimeout);
  check(world);
  return world.sampler()->digest();
}

// The three events counted per vCPU (LHP, LWP, SA sent) are bumped beside
// the host totals, so on every host the vCPU counts add up to them.
TEST_P(SamplerGolden, PerVcpuCountsSumToHostTotals) {
  int hosts = 0;
  const std::uint64_t digest =
      run_fixture(GetParam().cfg, [&hosts](core::HostNode& node) {
        ++hosts;
        hv::Host& host = node.host();
        std::uint64_t lhp = 0;
        std::uint64_t lwp = 0;
        std::uint64_t sa_sent = 0;
        for (int i = 0; i < host.n_vcpus(); ++i) {
          lhp += host.vcpu(i).lhp;
          lwp += host.vcpu(i).lwp;
          sa_sent += host.vcpu(i).sa_sent;
        }
        EXPECT_EQ(lhp, host.sched_stats().lhp_events);
        EXPECT_EQ(lwp, host.sched_stats().lwp_events);
        EXPECT_EQ(sa_sent, host.strategy_stats().sa_sent);
      });
  EXPECT_EQ(hosts, std::max(1, GetParam().cfg.cluster.n_hosts));
  EXPECT_EQ(digest, GetParam().digest) << "not the golden fixture's run";
}

// Tick by tick, the per-vCPU sa_sent tracks a run captures add up to the
// host's hv/sa_sent track.
TEST_P(SamplerGolden, PerVcpuSaSeriesSumToHostSeries) {
  exp::TraceDump single;
  std::vector<exp::TraceDump> hosts;
  exp::RunCapture cap{.dump = &single};
  if (GetParam().cfg.cluster.n_hosts >= 2) cap.host_dumps = &hosts;
  exp::run_scenario(GetParam().cfg, cap);
  if (hosts.empty()) hosts.push_back(single);
  for (const exp::TraceDump& d : hosts) {
    std::map<sim::Time, std::int64_t> host_sa;
    std::map<sim::Time, std::int64_t> vcpu_sa;
    int vcpu_tracks = 0;
    for (const SeriesData& s : d.series) {
      const std::string_view name = s.name;
      if (!name.ends_with("/sa_sent")) continue;
      const bool per_vcpu = name.find("/vcpu") != std::string_view::npos;
      vcpu_tracks += per_vcpu ? 1 : 0;
      for (const Sample& smp : s.samples) {
        (per_vcpu ? vcpu_sa : host_sa)[smp.when] += smp.value;
      }
    }
    EXPECT_EQ(static_cast<std::size_t>(vcpu_tracks), d.meta.vcpus.size());
    EXPECT_EQ(vcpu_sa, host_sa);
  }
}

// Also runs under TSan with the rest of the suite (`scripts/sanitize.sh
// thread`): the digest comparison races if sampling leaks state across
// pool workers.
TEST(SweepSampler, DigestsBitIdenticalAcrossThreadCounts) {
  exp::ScenarioConfig cfg;
  cfg.fg = "blackscholes";
  cfg.n_threads = 2;
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
