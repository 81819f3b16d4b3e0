// Tests for the extension strategies: delay-preemption (related work) and
// pull-based running-task migration (paper §6 future work).
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/exp/runner.h"
#include "tests/helpers.h"

namespace irs {
namespace {

using test::ScriptedBehavior;
using test::TestWorkload;

/// The delay-preemption fixture: one fg vCPU sharing pCPU 0 with a hog VM,
/// its "holder" task looping lock, compute(cs), unlock, compute(rest), run
/// for 3 s.
struct DelayPreemptRun {
  std::unique_ptr<core::World> world;
  hv::VmId fg = -1;
  hv::VmId bg = -1;
};

DelayPreemptRun run_delay_preempt(sim::Duration cs, sim::Duration rest) {
  core::WorldConfig wc;
  wc.n_pcpus = 1;
  wc.strategy = core::Strategy::kDelayPreempt;
  wc.seed = 3;
  DelayPreemptRun run;
  run.world = std::make_unique<core::World>(wc);
  core::World& w = *run.world;
  hv::VmConfig fg_cfg{.name = "fg", .n_vcpus = 1, .weight = 256,
                      .pin_map = {0}};
  run.fg = w.add_vm(fg_cfg, true);
  w.attach(run.fg,
           std::make_unique<TestWorkload>(
               "fg", [cs, rest](guest::GuestKernel& k, TestWorkload& tw) {
                 auto& m = tw.sync_ctx().make_mutex();
                 tw.add_task(k, "holder",
                             std::make_unique<ScriptedBehavior>(
                                 std::vector<guest::Action>{
                                     guest::Action::lock(m),
                                     guest::Action::compute(cs),
                                     guest::Action::unlock(m),
                                     guest::Action::compute(rest),
                                 },
                                 /*loop=*/true),
                             0);
               }));
  hv::VmConfig bg_cfg = fg_cfg;
  bg_cfg.name = "bg";
  run.bg = w.add_vm(bg_cfg, false);
  w.attach(run.bg, std::make_unique<TestWorkload>(
                       "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                         tw.add_task(k, "hog", test::hog_behavior(), 0);
                       }));
  w.start();
  w.run_for(sim::seconds(3));
  return run;
}

TEST(DelayPreempt, GrantsWindowsForLockHolders) {
  // A task that holds a lock half the time on a contended vCPU: preemption
  // decisions regularly land inside critical sections.
  const DelayPreemptRun run =
      run_delay_preempt(sim::microseconds(1500), sim::microseconds(800));
  core::World& w = *run.world;
  const auto& st = w.host().strategy_stats();
  EXPECT_GT(st.delay_grants, 0u);
  // 1.5 ms critical sections exceed the 500 us cap: some windows expire.
  EXPECT_GT(st.delay_expired, 0u);
  // Fairness preserved despite the delays (cap is tiny vs 30 ms slices).
  const auto now = w.engine().now();
  EXPECT_NEAR(sim::to_sec(w.host().vm(run.fg).vcpu(0).time_running(now)),
              1.5, 0.2);
  EXPECT_NEAR(sim::to_sec(w.host().vm(run.bg).vcpu(0).time_running(now)),
              1.5, 0.2);
}

TEST(DelayPreempt, ShortCriticalSectionsReleaseInsideWindow) {
  const DelayPreemptRun run =
      run_delay_preempt(sim::microseconds(130), sim::microseconds(570));
  core::World& w = *run.world;
  const auto& st = w.host().strategy_stats();
  ASSERT_GT(st.delay_grants, 0u);
  // 130 us critical sections always finish inside the 500 us window. The
  // run can stop with the last window still open (neither released nor
  // expired yet).
  EXPECT_EQ(st.delay_expired, 0u);
  const std::uint64_t still_open =
      w.host().vm(run.fg).vcpu(0).sa_pending() ? 1 : 0;
  EXPECT_EQ(st.delay_released + st.delay_expired + still_open,
            st.delay_grants);
}

TEST(DelayPreempt, TaskNeverComputesWhileVcpuDescheduled) {
  // Releasing the last lock inside a delay window deschedules the vCPU on
  // the spot, and the task must stop with it: its compute time can never
  // exceed the time its vCPU held a pCPU.
  // The two fixtures above: windows that expire, and windows released.
  const std::pair<sim::Duration, sim::Duration> shapes[] = {
      {sim::microseconds(1500), sim::microseconds(800)},
      {sim::microseconds(130), sim::microseconds(570)}};
  for (const auto& [cs, rest] : shapes) {
    SCOPED_TRACE(testing::Message() << "critical section " << cs << " ns");
    const DelayPreemptRun run = run_delay_preempt(cs, rest);
    core::World& w = *run.world;
    const guest::Task& holder = w.kernel(run.fg).task(0);
    EXPECT_GT(holder.stats.compute_done, 0);
    EXPECT_LE(holder.stats.compute_done,
              w.host().vm(run.fg).vcpu(0).time_running(w.engine().now()));
  }
}

TEST(DelayPreempt, NoGrantsWithoutLocks) {
  exp::ScenarioConfig cfg;
  cfg.fg = "blackscholes";  // barrier-only, never holds a lock
  cfg.strategy = core::Strategy::kDelayPreempt;
  cfg.work_scale = 0.25;
  cfg.seed = 7;
  const exp::RunResult r = exp::run_scenario(cfg);
  ASSERT_TRUE(r.finished);
  // (grants aren't surfaced in RunResult; equivalence with baseline is the
  // observable: same makespan modulo nothing-at-all.)
  exp::ScenarioConfig base = cfg;
  base.strategy = core::Strategy::kBaseline;
  EXPECT_EQ(exp::run_scenario(base).fg_makespan, r.fg_makespan);
}

TEST(IrsPull, RescuesRunningTaskFromPreemptedVcpu) {
  // Solo compute task on a contended vCPU, pull-only mode: when siblings
  // idle-poll, they yank the frozen current task and run it.
  core::WorldConfig wc;
  wc.strategy = core::Strategy::kIrsPull;
  wc.seed = 5;
  core::World w(wc);
  hv::VmConfig fg_cfg{.name = "fg", .n_vcpus = 4, .weight = 256,
                      .pin_map = {0, 1, 2, 3}};
  const auto fg = w.add_vm(fg_cfg, true);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "solo", test::hog_behavior(), 0);
                   }));
  hv::VmConfig bg_cfg{.name = "bg", .n_vcpus = 1, .weight = 256,
                      .pin_map = {0}};
  const auto bg = w.add_vm(bg_cfg, false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(2));
  EXPECT_GT(w.kernel(fg).stats().irs_pull_migrations, 0u);
  // Without SAs, pull-only still recovers most of the lost throughput.
  const auto done = w.workload(fg).tasks()[0]->stats.compute_done;
  EXPECT_GT(sim::to_sec(done), 1.5);
  // And no SA machinery ran.
  EXPECT_EQ(w.host().strategy_stats().sa_sent, 0u);
  EXPECT_EQ(w.kernel(fg).stats().sa_received, 0u);
}

TEST(IrsPull, DoesNothingForSpinningWorkloads) {
  // Spinning guests never idle, so the pull never triggers — the paper's
  // §6 point that pull-based migration needs an idle moment.
  exp::ScenarioConfig cfg;
  cfg.fg = "UA";
  cfg.strategy = core::Strategy::kIrsPull;
  cfg.work_scale = 0.25;
  cfg.seed = 11;
  const exp::RunResult pull = exp::run_scenario(cfg);
  cfg.strategy = core::Strategy::kBaseline;
  const exp::RunResult base = exp::run_scenario(cfg);
  ASSERT_TRUE(pull.finished);
  EXPECT_NEAR(exp::improvement_pct(base, pull), 0.0, 3.0);
}

TEST(IrsPull, MatchesIrsForBlockingWorkloads) {
  exp::ScenarioConfig cfg;
  cfg.fg = "streamcluster";
  cfg.work_scale = 0.5;
  cfg.seed = 13;
  cfg.strategy = core::Strategy::kBaseline;
  const exp::RunResult base = exp::run_scenario(cfg);
  cfg.strategy = core::Strategy::kIrs;
  const exp::RunResult irs = exp::run_scenario(cfg);
  cfg.strategy = core::Strategy::kIrsPull;
  const exp::RunResult pull = exp::run_scenario(cfg);
  const double irs_gain = exp::improvement_pct(base, irs);
  const double pull_gain = exp::improvement_pct(base, pull);
  EXPECT_GT(pull_gain, irs_gain * 0.6);  // same ballpark
}

TEST(Extensions, StrategyListAndNames) {
  EXPECT_STREQ(core::strategy_name(core::Strategy::kDelayPreempt),
               "Delay-Preempt");
  EXPECT_STREQ(core::strategy_name(core::Strategy::kIrsPull), "IRS-Pull");
}

}  // namespace
}  // namespace irs
