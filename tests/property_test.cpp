// Property-style invariant sweeps across (workload x strategy x
// interference) using parameterized gtest, plus randomized round-trip
// properties of the NDJSON result serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/world.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/sim/rng.h"
#include "src/wl/registry.h"

namespace irs::exp {
namespace {

using Param = std::tuple<const char*, core::Strategy, int>;

class InvariantSweep : public ::testing::TestWithParam<Param> {};

/// Run `cfg`'s shape (the foreground VM beside one pinned hog VM) on a
/// core::World, which keeps what RunResult does not carry: the SAs the ack
/// cap forced and the vCPUs whose SA is still pending when the run ends.
/// Checks that every SA sent is acknowledged, forced or pending, and
/// returns the world's strategy counters.
hv::StrategyStats expect_sa_identity(const ScenarioConfig& cfg) {
  core::World world(cfg);
  const auto pins = [](int n) {
    std::vector<hv::PcpuId> p;
    for (int i = 0; i < n; ++i) p.push_back(i);
    return p;
  };
  hv::VmConfig fg_vm;
  fg_vm.name = "fg";
  fg_vm.n_vcpus = cfg.n_vcpus;
  fg_vm.pin_map = pins(cfg.n_vcpus);
  const hv::VmId fg = world.add_vm(fg_vm, /*irs_capable=*/true, cfg.fg_guest);
  wl::WorkloadOptions fg_opts;
  fg_opts.n_threads = cfg.n_threads;
  fg_opts.work_scale = cfg.work_scale;
  world.attach(fg, wl::make_workload(cfg.fg, fg_opts));
  hv::VmConfig bg_vm;
  bg_vm.name = "bg0";
  bg_vm.n_vcpus = cfg.n_inter;
  bg_vm.pin_map = pins(cfg.n_inter);
  const hv::VmId bg = world.add_vm(bg_vm, /*irs_capable=*/false);
  wl::WorkloadOptions bg_opts;
  bg_opts.n_threads = cfg.n_inter;
  world.attach(bg, wl::make_workload(cfg.bg, bg_opts, /*endless=*/true));
  world.start();
  EXPECT_TRUE(world.run_until_finished(fg, exp::kRunTimeout));

  const hv::StrategyStats st = world.host().strategy_stats();
  std::uint64_t pending = 0;
  for (int i = 0; i < world.host().n_vms(); ++i) {
    for (const hv::Vcpu* v : world.host().vm(i).vcpus()) {
      pending += v->sa_pending() ? 1 : 0;
    }
  }
  EXPECT_EQ(st.sa_sent, st.sa_acked + st.sa_forced + pending)
      << cfg.fg << " at an SA ack cap of " << cfg.hv.sa_ack_cap << " ns";
  return st;
}

TEST_P(InvariantSweep, RunObeysSystemInvariants) {
  const auto& [app, strategy, n_inter] = GetParam();
  ScenarioConfig cfg;
  cfg.fg = app;
  cfg.strategy = strategy;
  cfg.n_inter = n_inter;
  cfg.work_scale = 0.25;
  cfg.seed = 17;
  const RunResult r = run_scenario(cfg);

  // 1. The workload always completes.
  ASSERT_TRUE(r.finished) << app;

  // 2. Utilisation never exceeds fair share by more than rounding noise
  //    (paper §5.4: IRS must not break hypervisor fairness).
  EXPECT_LE(r.fg_util_vs_fair, 1.12) << app;

  // 3. Makespan is at least the ideal lower bound: per-thread work at
  //    full speed.
  const sim::Duration ideal = static_cast<sim::Duration>(
      0.25 * 0.9 * 1e6) * 600;  // >= 0.9x smallest catalogue work, scaled
  EXPECT_GE(r.fg_makespan, ideal / 1000) << app;

  // 4. SA accounting is consistent: every SA sent is acknowledged, forced
  //    by the ack cap, or still pending at the end, on the scenario's own
  //    run and on one whose 15 us cap (below the 20 us handler) forces SAs.
  //    No other strategy sends any.
  if (strategy != core::Strategy::kIrs) {
    EXPECT_EQ(r.sa_sent, 0u) << app;
    EXPECT_EQ(r.irs_migrations, 0u) << app;
    return;
  }
  const hv::StrategyStats st = expect_sa_identity(cfg);
  EXPECT_EQ(st.sa_sent, r.sa_sent) << app;
  EXPECT_EQ(st.sa_acked, r.sa_acked) << app;
  ScenarioConfig capped = cfg;
  capped.hv.sa_ack_cap = sim::microseconds(15);
  const hv::StrategyStats forced = expect_sa_identity(capped);
  EXPECT_GT(forced.sa_forced, 0u) << app;
}

INSTANTIATE_TEST_SUITE_P(
    BlockingApps, InvariantSweep,
    ::testing::Combine(::testing::Values("streamcluster", "fluidanimate",
                                         "x264", "blackscholes"),
                       ::testing::Values(core::Strategy::kBaseline,
                                         core::Strategy::kPle,
                                         core::Strategy::kRelaxedCo,
                                         core::Strategy::kIrs),
                       ::testing::Values(1, 2, 4)));

INSTANTIATE_TEST_SUITE_P(
    SpinningApps, InvariantSweep,
    ::testing::Combine(::testing::Values("CG", "MG", "UA"),
                       ::testing::Values(core::Strategy::kBaseline,
                                         core::Strategy::kPle,
                                         core::Strategy::kIrs),
                       ::testing::Values(1, 4)));

INSTANTIATE_TEST_SUITE_P(
    SpecialApps, InvariantSweep,
    ::testing::Combine(::testing::Values("raytrace", "dedup", "EP"),
                       ::testing::Values(core::Strategy::kBaseline,
                                         core::Strategy::kIrs),
                       ::testing::Values(1, 2)));

/// Work-conservation property: total useful compute equals the catalogue's
/// prescription regardless of strategy or interference.
class WorkConservation
    : public ::testing::TestWithParam<std::tuple<const char*, core::Strategy>> {
};

TEST_P(WorkConservation, UsefulComputeMatchesSpec) {
  const auto& [app, strategy] = GetParam();
  ScenarioConfig a;
  a.fg = app;
  a.strategy = core::Strategy::kBaseline;
  a.bg = "";
  a.work_scale = 0.25;
  a.seed = 29;
  ScenarioConfig b = a;
  b.strategy = strategy;
  b.bg = "hog";
  b.n_inter = 1;
  const RunResult alone = run_scenario(a);
  const RunResult loaded = run_scenario(b);
  ASSERT_TRUE(alone.finished);
  ASSERT_TRUE(loaded.finished);
  // The same computation is performed under interference; only the
  // schedule changes. Efficiency-vs-fair differs but total work is fixed,
  // so compare via efficiency * fair_share = useful work:
  // (exposed indirectly: both runs must have nonzero efficiency and the
  // loaded run must not do more work than capacity allows).
  EXPECT_GT(alone.fg_efficiency, 0.0);
  EXPECT_GT(loaded.fg_efficiency, 0.0);
  EXPECT_LE(loaded.fg_efficiency, 1.15);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, WorkConservation,
    ::testing::Combine(::testing::Values("streamcluster", "UA", "x264",
                                         "raytrace"),
                       ::testing::Values(core::Strategy::kBaseline,
                                         core::Strategy::kIrs)));

/// Interference-level monotonicity: more interfered vCPUs never speeds the
/// foreground app up (sanity of the interference plumbing).
class InterferenceMonotonic : public ::testing::TestWithParam<const char*> {};

TEST_P(InterferenceMonotonic, MakespanGrowsWithInterference) {
  sim::Duration prev = 0;
  for (const int n_inter : {0, 1, 4}) {
    ScenarioConfig cfg;
    cfg.fg = GetParam();
    cfg.strategy = core::Strategy::kBaseline;
    cfg.bg = n_inter == 0 ? "" : "hog";
    cfg.n_inter = n_inter;
    cfg.work_scale = 0.25;
    cfg.seed = 31;
    const RunResult r = run_scenario(cfg);
    ASSERT_TRUE(r.finished);
    EXPECT_GE(r.fg_makespan, prev) << "n_inter=" << n_inter;
    // Allow 15% slack: e.g. spinning apps degrade ~2x at both 1-inter
    // (laggard-bound) and 4-inter (uniformly halved), in either order.
    prev = static_cast<sim::Duration>(0.85 * static_cast<double>(r.fg_makespan));
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, InterferenceMonotonic,
                         ::testing::Values("streamcluster", "UA", "x264",
                                           "blackscholes", "raytrace"));

/// Determinism across every strategy.
class Determinism : public ::testing::TestWithParam<core::Strategy> {};

TEST_P(Determinism, IdenticalSeedsIdenticalResults) {
  ScenarioConfig cfg;
  cfg.fg = "MG";
  cfg.strategy = GetParam();
  cfg.work_scale = 0.2;
  cfg.seed = 37;
  const RunResult a = run_scenario(cfg);
  const RunResult b = run_scenario(cfg);
  EXPECT_EQ(a.fg_makespan, b.fg_makespan);
  EXPECT_EQ(a.lhp, b.lhp);
  EXPECT_EQ(a.lwp, b.lwp);
  EXPECT_EQ(a.sa_sent, b.sa_sent);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, Determinism,
                         ::testing::Values(core::Strategy::kBaseline,
                                           core::Strategy::kPle,
                                           core::Strategy::kRelaxedCo,
                                           core::Strategy::kIrs));

/// A RunResult with every field drawn from the simulator's own RNG:
/// durations span the full positive int64 range, doubles mix magnitudes
/// (including subnormal-ish and huge values) so the shortest round-trip
/// formatting is stressed, counters use the full uint64 range.
RunResult random_result(sim::Rng& rng) {
  RunResult r;
  // Uniform over [0, INT64_MAX].
  auto rnd_duration = [&] {
    return static_cast<sim::Duration>(rng.next_below(std::uint64_t{1} << 63));
  };
  r.finished = rng.next_below(2) == 1;
  r.fg_makespan = rnd_duration();
  auto rnd_double = [&] {
    // Random mantissa at a random decade: exercises fixed and scientific
    // shortest forms, signs, and values with no short decimal expansion.
    const auto decade = -30 + static_cast<int>(rng.next_below(61));
    const double mag = std::pow(10.0, static_cast<double>(decade));
    const double v = (rng.next_double() * 2 - 1) * mag;
    return v;
  };
  r.fg_util_vs_fair = rnd_double();
  r.fg_efficiency = rnd_double();
  r.bg_progress_rate = rnd_double();
  r.throughput = rnd_double();
  r.lat_mean = rnd_duration();
  r.lat_p99 = rnd_duration();
  r.lhp = rng.next_u64();
  r.lwp = rng.next_u64();
  r.irs_migrations = rng.next_u64();
  r.sa_sent = rng.next_u64();
  r.sa_acked = rng.next_u64();
  r.sa_delay_avg = rnd_duration();
  r.sampler_digest = rng.next_u64();
  return r;
}

/// serialize -> parse -> re-serialize is byte-identical, and the parsed
/// result is bit-identical, for arbitrary RunResults — the property every
/// NDJSON consumer of a sweep rests on.
TEST(NdjsonRoundTrip, RandomResultsSurviveByteAndBitIdentical) {
  sim::Rng rng(20260805);
  for (int i = 0; i < 500; ++i) {
    const RunResult r = random_result(rng);
    const std::string json = result_json(r);
    RunResult parsed;
    std::string err;
    ASSERT_TRUE(result_from_json(json, &parsed, &err)) << err << "\n" << json;
    EXPECT_TRUE(results_identical(r, parsed)) << json;
    EXPECT_EQ(result_json(parsed), json);
  }
}

}  // namespace
}  // namespace irs::exp
