// Tests for PLE and relaxed co-scheduling strategy components.
#include <gtest/gtest.h>

#include "src/hv/host.h"
#include "src/hv/ple.h"
#include "tests/helpers.h"

namespace irs {
namespace {

using hv::kPleWindow;
using test::ScriptedBehavior;
using test::TestWorkload;

hv::VmConfig pinned(const std::string& name, std::vector<hv::PcpuId> pins) {
  hv::VmConfig cfg;
  cfg.name = name;
  cfg.n_vcpus = static_cast<int>(pins.size());
  cfg.pin_map = std::move(pins);
  return cfg;
}

TEST(Ple, ExitsFireOnlyWhenSomeoneWaits) {
  // fg task spins forever on pCPU0 where a hog VM queues behind it.
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  wc.strategy = core::Strategy::kPle;
  core::World w(wc);
  const auto fg = w.add_vm(pinned("fg", {0}), false);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     auto& lock = tw.sync_ctx().make_spinlock();
                     tw.add_task(
                         k, "holder",
                         std::make_unique<ScriptedBehavior>(
                             std::vector<guest::Action>{
                                 guest::Action::spin_lock(lock),
                                 guest::Action::compute(sim::seconds(10)),
                             }),
                         0);
                     // Second task spins on the lock forever.
                     tw.add_task(
                         k, "spinner",
                         std::make_unique<ScriptedBehavior>(
                             std::vector<guest::Action>{
                                 guest::Action::compute(sim::microseconds(10)),
                                 guest::Action::spin_lock(lock),
                             }),
                         0);
                   }));
  const auto bg = w.add_vm(pinned("bg", {0}), false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(1));
  EXPECT_GT(w.host().strategy_stats().ple_exits, 0u);
}

TEST(Ple, NoExitsWithoutCompetition) {
  // Spinner alone on its pCPU: PLE re-arms but never yields.
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  wc.strategy = core::Strategy::kPle;
  core::World w(wc);
  const auto fg = w.add_vm(pinned("fg", {0, 1}), false);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     auto& lock = tw.sync_ctx().make_spinlock();
                     tw.add_task(
                         k, "holder",
                         std::make_unique<ScriptedBehavior>(
                             std::vector<guest::Action>{
                                 guest::Action::spin_lock(lock),
                                 guest::Action::compute(sim::seconds(10)),
                             }),
                         0);
                     tw.add_task(
                         k, "spinner",
                         std::make_unique<ScriptedBehavior>(
                             std::vector<guest::Action>{
                                 guest::Action::compute(sim::microseconds(10)),
                                 guest::Action::spin_lock(lock),
                             }),
                         1);
                   }));
  w.start();
  w.run_for(sim::seconds(1));
  EXPECT_EQ(w.host().strategy_stats().ple_exits, 0u);
}

TEST(Ple, DisabledUnderBaseline) {
  core::WorldConfig wc;
  wc.n_pcpus = 1;
  wc.strategy = core::Strategy::kBaseline;
  core::World w(wc);
  const auto fg = w.add_vm(pinned("fg", {0}), false);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     auto& lock = tw.sync_ctx().make_spinlock();
                     tw.add_task(
                         k, "holder",
                         std::make_unique<ScriptedBehavior>(
                             std::vector<guest::Action>{
                                 guest::Action::spin_lock(lock),
                                 guest::Action::compute(sim::seconds(5)),
                             }),
                         0);
                     tw.add_task(
                         k, "spinner",
                         std::make_unique<ScriptedBehavior>(
                             std::vector<guest::Action>{
                                 guest::Action::compute(sim::microseconds(10)),
                                 guest::Action::spin_lock(lock),
                             }),
                         0);
                   }));
  w.start();
  w.run_for(sim::milliseconds(500));
  EXPECT_EQ(w.host().strategy_stats().ple_exits, 0u);
}

// The dormant PLE watch, on guest-less VMs driven through the scheduler
// API: vCPU `a` spins on pCPU 0, `b` is a waiter that queues there without
// preempting it (OVER priority never beats `a`'s wake-up BOOST).
class PleWatch : public ::testing::Test {
 protected:
  PleWatch() : host_(eng_, hv::HvConfig{}, 1) {
    host_.enable_ple();
    host_.trace().set_capacity(1 << 12);
    a_ = &host_.add_vm(pinned("a", {0}));
    b_ = &host_.add_vm(pinned("b", {0}));
    host_.start();
    host_.sched().wake(spinner());
    eng_.run_until(sim::microseconds(100));
  }

  hv::Vcpu& spinner() { return a_->vcpu(0); }

  /// Queue the waiter on pCPU 0 behind the running spinner.
  void enqueue_waiter() {
    b_->vcpu(0).set_prio(hv::CreditPrio::kOver);
    host_.sched().wake(b_->vcpu(0));
    ASSERT_EQ(b_->vcpu(0).state(), hv::VcpuState::kRunnable);
  }

  std::vector<sim::Time> ple_exits() {
    std::vector<sim::Time> at;
    for (const auto& r : host_.trace().snapshot()) {
      if (r.kind == sim::TraceKind::kPleExit) at.push_back(r.when);
    }
    return at;
  }

  sim::Engine eng_;
  hv::Host host_;
  hv::Vm* a_ = nullptr;
  hv::Vm* b_ = nullptr;
};

TEST_F(PleWatch, SpinnerAloneDispatchesNoPollPerWindow) {
  ASSERT_EQ(spinner().state(), hv::VcpuState::kRunning);
  host_.note_spinning(*a_, 0, true);
  const std::uint64_t before = eng_.dispatched();
  eng_.run_until(eng_.now() + 20 * kPleWindow);
  // One poll finds nobody waiting; the watch then stays dormant instead of
  // polling every window.
  EXPECT_LE(eng_.dispatched() - before, 2u);
  EXPECT_EQ(host_.strategy_stats().ple_exits, 0u);
}

TEST_F(PleWatch, WaiterMidWindowExitsAtTheNextBoundary) {
  host_.note_spinning(*a_, 0, true);
  // The first boundary finds nobody waiting: the anchor of the dormant watch.
  const sim::Time anchor = eng_.now() + kPleWindow;
  constexpr int k = 7;
  eng_.run_until(anchor + k * kPleWindow + kPleWindow / 2);  // mid-window k
  enqueue_waiter();
  eng_.run_until(anchor + (k + 3) * kPleWindow);
  EXPECT_EQ(ple_exits(),
            (std::vector<sim::Time>{anchor + (k + 1) * kPleWindow}));
}

TEST_F(PleWatch, DescheduledWhileDormantRestartsFromTheNewSpinSignal) {
  // The spin signal stays raised across the deschedule, as when the guest
  // never saw its vCPU stop; the vCPU is still off its pCPU at the next
  // boundary, which ends the window.
  host_.note_spinning(*a_, 0, true);
  eng_.run_until(eng_.now() + 3 * kPleWindow + kPleWindow / 2);  // dormant
  host_.sched().block(spinner());
  eng_.run_until(eng_.now() + 2 * kPleWindow);
  host_.sched().wake(spinner());
  eng_.run_until(eng_.now() + sim::microseconds(7));
  ASSERT_EQ(spinner().state(), hv::VcpuState::kRunning);
  host_.note_spinning(*a_, 0, true);  // re-signalled on regaining the pCPU
  const sim::Time respin = eng_.now();
  enqueue_waiter();
  eng_.run_until(respin + 3 * kPleWindow);
  ASSERT_FALSE(ple_exits().empty());
  EXPECT_EQ(ple_exits().front(), respin + kPleWindow);
}

TEST_F(PleWatch, RescheduledWithinTheWindowKeepsItsBoundary) {
  // Preempted and back on the pCPU before the next boundary: that boundary
  // still counts, as the queued poll of a non-dormant window would.
  host_.note_spinning(*a_, 0, true);
  const sim::Time start = eng_.now();
  eng_.run_until(start + 3 * kPleWindow + kPleWindow / 2);  // dormant
  host_.sched().force_preempt(spinner());
  eng_.run_until(eng_.now() + sim::microseconds(7));
  ASSERT_EQ(spinner().state(), hv::VcpuState::kRunning);
  host_.note_spinning(*a_, 0, true);
  enqueue_waiter();
  eng_.run_until(start + 6 * kPleWindow);
  EXPECT_EQ(ple_exits(), (std::vector<sim::Time>{start + 4 * kPleWindow}));
}

TEST(RelaxedCo, StopsLeaderUnderSkew) {
  // fg VM with 2 vCPUs; vCPU0 contended by a hog -> persistent skew.
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  wc.strategy = core::Strategy::kRelaxedCo;
  core::World w(wc);
  const auto fg = w.add_vm(pinned("fg", {0, 1}), false);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "a", test::hog_behavior(), 0);
                     tw.add_task(k, "b", test::hog_behavior(), 1);
                   }));
  const auto bg = w.add_vm(pinned("bg", {0}), false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(2));
  // vCPU1 leads every period (vCPU0 loses ~50%): leader stops must fire.
  EXPECT_GT(w.host().strategy_stats().co_stops, 5u);
}

TEST(RelaxedCo, NoStopsWhenBalanced) {
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  wc.strategy = core::Strategy::kRelaxedCo;
  core::World w(wc);
  const auto fg = w.add_vm(pinned("fg", {0, 1}), false);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "a", test::hog_behavior(), 0);
                     tw.add_task(k, "b", test::hog_behavior(), 1);
                   }));
  w.start();
  w.run_for(sim::seconds(2));
  EXPECT_EQ(w.host().strategy_stats().co_stops, 0u);
}

TEST(RelaxedCo, IdleCountsAsProgress) {
  // vCPU1 idles (blocked) while vCPU0 computes: idleness counts as
  // progress (the paper's criticised design), so no stops.
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  wc.strategy = core::Strategy::kRelaxedCo;
  core::World w(wc);
  const auto fg = w.add_vm(pinned("fg", {0, 1}), false);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "a", test::hog_behavior(), 0);
                     // nothing on vCPU1: it stays blocked
                   }));
  w.start();
  w.run_for(sim::seconds(2));
  EXPECT_EQ(w.host().strategy_stats().co_stops, 0u);
}

TEST(RelaxedCo, StoppedLeaderResumesNextPeriod) {
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  wc.strategy = core::Strategy::kRelaxedCo;
  core::World w(wc);
  const auto fg = w.add_vm(pinned("fg", {0, 1}), false);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "a", test::hog_behavior(), 0);
                     tw.add_task(k, "b", test::hog_behavior(), 1);
                   }));
  const auto bg = w.add_vm(pinned("bg", {0}), false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(3));
  // Despite stops, the leading vCPU still makes progress over time (stops
  // last one period, not forever).
  const auto now = w.engine().now();
  const auto lead = w.host().vm(fg).vcpu(1).time_running(now);
  EXPECT_GT(sim::to_sec(lead), 1.0);
}

TEST(RelaxedCo, RespectsAffinityWhenBoostingLaggard) {
  // Laggard pinned to pCPU0 must never be migrated to the leader's pCPU1.
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  wc.strategy = core::Strategy::kRelaxedCo;
  core::World w(wc);
  const auto fg = w.add_vm(pinned("fg", {0, 1}), false);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "a", test::hog_behavior(), 0);
                     tw.add_task(k, "b", test::hog_behavior(), 1);
                   }));
  const auto bg = w.add_vm(pinned("bg", {0}), false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(3));
  // fg vCPU0 pinned to pCPU0: it must never have run on pCPU1. If it had,
  // its total running time could exceed its 50% share of pCPU0.
  const auto now = w.engine().now();
  EXPECT_EQ(w.host().vm(fg).vcpu(0).resident(), 0);
  EXPECT_LT(sim::to_sec(w.host().vm(fg).vcpu(0).time_running(now)), 1.8);
}

TEST(Strategy, NamesAndLists) {
  EXPECT_STREQ(core::strategy_name(core::Strategy::kBaseline), "Xen");
  EXPECT_STREQ(core::strategy_name(core::Strategy::kIrs), "IRS");
  EXPECT_EQ(core::all_strategies().size(), 4u);
  EXPECT_EQ(core::all_strategies().front(), core::Strategy::kBaseline);
}

}  // namespace
}  // namespace irs
