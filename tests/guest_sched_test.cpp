// Guest kernel scheduling tests: task execution, CFS fairness, wake-up
// placement, idle blocking, spin accounting — all through the public World
// facade with scripted behaviours.
#include <gtest/gtest.h>

#include "src/hv/hypercalls.h"
#include "tests/helpers.h"

namespace irs {
namespace {

using test::LambdaBehavior;
using test::ScriptedBehavior;
using test::TestWorkload;

core::WorldConfig base_config(int pcpus = 2) {
  core::WorldConfig wc;
  wc.n_pcpus = pcpus;
  wc.seed = 11;
  return wc;
}

hv::VmConfig pinned_vm(const std::string& name, int n) {
  hv::VmConfig cfg;
  cfg.name = name;
  cfg.n_vcpus = n;
  for (int i = 0; i < n; ++i) cfg.pin_map.push_back(i);
  return cfg;
}

TEST(GuestSched, SingleComputeTaskFinishesOnTime) {
  core::World w(base_config(1));
  const auto vm = w.add_vm(pinned_vm("vm", 1), false);
  auto& wl = w.attach(vm, std::make_unique<TestWorkload>(
                              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                                tw.add_task(k, "a",
                                            test::compute_behavior(
                                                sim::milliseconds(50)));
                              }));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(1)));
  // 50 ms of work plus small modelled overheads.
  EXPECT_GE(wl.makespan_end(), sim::milliseconds(50));
  EXPECT_LT(wl.makespan_end(), sim::milliseconds(52));
  // compute_done includes the context-switch overhead folded into the op.
  EXPECT_GE(wl.tasks()[0]->stats.compute_done, sim::milliseconds(50));
  EXPECT_LE(wl.tasks()[0]->stats.compute_done,
            sim::milliseconds(50) + sim::microseconds(20));
}

TEST(GuestSched, TwoTasksOneCpuShareFairly) {
  core::World w(base_config(1));
  const auto vm = w.add_vm(pinned_vm("vm", 1), false);
  auto& wl = w.attach(
      vm, std::make_unique<TestWorkload>(
              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                tw.add_task(k, "a", test::hog_behavior(), 0);
                tw.add_task(k, "b", test::hog_behavior(), 0);
              }));
  w.start();
  w.run_for(sim::seconds(2));
  const auto ca = wl.tasks()[0]->stats.compute_done;
  const auto cb = wl.tasks()[1]->stats.compute_done;
  EXPECT_NEAR(sim::to_sec(ca), 1.0, 0.05);
  EXPECT_NEAR(sim::to_sec(cb), 1.0, 0.05);
}

TEST(GuestSched, TasksSpreadAcrossVcpus) {
  core::World w(base_config(2));
  const auto vm = w.add_vm(pinned_vm("vm", 2), false);
  auto& wl = w.attach(
      vm, std::make_unique<TestWorkload>(
              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                tw.add_task(k, "a", test::hog_behavior(), 0);
                tw.add_task(k, "b", test::hog_behavior(), 1);
              }));
  w.start();
  w.run_for(sim::seconds(1));
  // Both run in parallel at full speed.
  EXPECT_GT(sim::to_sec(wl.tasks()[0]->stats.compute_done), 0.95);
  EXPECT_GT(sim::to_sec(wl.tasks()[1]->stats.compute_done), 0.95);
}

TEST(GuestSched, IdleGuestBlocksItsVcpu) {
  core::World w(base_config(1));
  const auto vm = w.add_vm(pinned_vm("vm", 1), false);
  w.attach(vm, std::make_unique<TestWorkload>(
                   "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "a",
                                 test::compute_behavior(sim::milliseconds(5)));
                   }));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(1)));
  w.run_for(sim::milliseconds(50));
  EXPECT_EQ(w.host().vm(vm).vcpu(0).state(), hv::VcpuState::kBlocked);
  // vCPU ran only ~5ms of the elapsed time.
  EXPECT_LT(sim::to_ms(w.host().vm(vm).vcpu(0).time_running(w.engine().now())),
            12.0);
}

TEST(GuestSched, KickWakesOnlyABlockedVcpu) {
  // vcpu_kick is how the guest revives an idle sibling it has queued work
  // on: a blocked vCPU is woken, a running one is left as it is.
  core::World w(base_config(2));
  const auto vm = w.add_vm(pinned_vm("vm", 2), false);
  w.attach(vm, std::make_unique<TestWorkload>(
                   "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "busy", test::hog_behavior(), 0);
                   }));
  w.start();
  // Halfway between the idle vCPU's housekeeping wakes.
  w.run_for(sim::milliseconds(5));
  hv::Hypercalls& hc = w.kernel(vm).hypercalls();
  ASSERT_EQ(hc.vcpu_runstate(0).state, hv::VcpuState::kRunning);
  ASSERT_EQ(hc.vcpu_runstate(1).state, hv::VcpuState::kBlocked);
  const hv::RunstateInfo busy = hc.vcpu_runstate(0);
  const hv::RunstateInfo idle = hc.vcpu_runstate(1);

  hc.vcpu_kick(0);
  EXPECT_EQ(hc.vcpu_runstate(0).state, hv::VcpuState::kRunning);
  EXPECT_EQ(hc.vcpu_runstate(0).state_entered, busy.state_entered);

  hc.vcpu_kick(1);
  EXPECT_NE(hc.vcpu_runstate(1).state, hv::VcpuState::kBlocked);
  EXPECT_EQ(hc.vcpu_runstate(1).state_entered, w.engine().now());
  w.run_for(sim::milliseconds(1));
  // Woken with nothing to run, the idle vCPU ran and blocked again.
  const hv::RunstateInfo after = hc.vcpu_runstate(1);
  EXPECT_EQ(after.state, hv::VcpuState::kBlocked);
  EXPECT_GT(after.time_running, idle.time_running);
}

TEST(GuestSched, SleepWakesAndContinues) {
  core::World w(base_config(1));
  const auto vm = w.add_vm(pinned_vm("vm", 1), false);
  auto& wl = w.attach(
      vm, std::make_unique<TestWorkload>(
              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                tw.add_task(
                    k, "a",
                    std::make_unique<ScriptedBehavior>(std::vector<guest::Action>{
                        guest::Action::compute(sim::milliseconds(2)),
                        guest::Action::sleep(sim::milliseconds(20)),
                        guest::Action::compute(sim::milliseconds(2)),
                    }));
              }));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(1)));
  EXPECT_GE(wl.makespan_end(), sim::milliseconds(24));
  EXPECT_LT(wl.makespan_end(), sim::milliseconds(30));
  EXPECT_EQ(wl.tasks()[0]->stats.wakeups, 1u);
}

TEST(GuestSched, WakePrefersPreviousIdleCpu) {
  core::World w(base_config(2));
  const auto vm = w.add_vm(pinned_vm("vm", 2), false);
  auto& wl = w.attach(
      vm, std::make_unique<TestWorkload>(
              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                tw.add_task(
                    k, "sleeper",
                    std::make_unique<ScriptedBehavior>(
                        std::vector<guest::Action>{
                            guest::Action::compute(sim::milliseconds(1)),
                            guest::Action::sleep(sim::milliseconds(5)),
                            guest::Action::compute(sim::milliseconds(1)),
                        }),
                    1);
              }));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(1)));
  // No reason to migrate: it should stay on CPU 1 throughout.
  EXPECT_EQ(wl.tasks()[0]->cpu(), 1);
  EXPECT_EQ(wl.tasks()[0]->stats.migrations, 0u);
}

TEST(GuestSched, SpinningConsumesCpuWithoutProgress) {
  core::World w(base_config(1));
  const auto vm = w.add_vm(pinned_vm("vm", 1), false);
  auto& wl = w.attach(
      vm, std::make_unique<TestWorkload>(
              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                auto& lock = tw.sync_ctx().make_spinlock();
                // Task A grabs the lock and holds it while computing.
                tw.add_task(
                    k, "holder",
                    std::make_unique<ScriptedBehavior>(std::vector<guest::Action>{
                        guest::Action::spin_lock(lock),
                        guest::Action::compute(sim::milliseconds(40)),
                        guest::Action::spin_unlock(lock),
                    }),
                    0);
                // Task B spins on it.
                tw.add_task(
                    k, "waiter",
                    std::make_unique<ScriptedBehavior>(std::vector<guest::Action>{
                        guest::Action::compute(sim::milliseconds(1)),
                        guest::Action::spin_lock(lock),
                        guest::Action::spin_unlock(lock),
                    }),
                    0);
              }));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(2)));
  // The waiter burnt real CPU while spinning (they share one CPU, so the
  // holder needs ~80 ms wall; waiter spins roughly half of that).
  EXPECT_GT(sim::to_ms(wl.tasks()[1]->stats.spin_time), 10.0);
}

TEST(GuestSched, MutexBlocksInsteadOfBurning) {
  core::World w(base_config(1));
  const auto vm = w.add_vm(pinned_vm("vm", 1), false);
  auto& wl = w.attach(
      vm, std::make_unique<TestWorkload>(
              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                auto& m = tw.sync_ctx().make_mutex();
                tw.add_task(
                    k, "holder",
                    std::make_unique<ScriptedBehavior>(std::vector<guest::Action>{
                        guest::Action::lock(m),
                        guest::Action::compute(sim::milliseconds(40)),
                        guest::Action::unlock(m),
                    }),
                    0);
                tw.add_task(
                    k, "waiter",
                    std::make_unique<ScriptedBehavior>(std::vector<guest::Action>{
                        guest::Action::compute(sim::milliseconds(1)),
                        guest::Action::lock(m),
                        guest::Action::unlock(m),
                    }),
                    0);
              }));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(1)));
  // Blocking waiter burns no spin time; holder finishes in ~41 ms.
  EXPECT_EQ(wl.tasks()[1]->stats.spin_time, 0);
  EXPECT_LT(wl.makespan_end(), sim::milliseconds(50));
}

TEST(GuestSched, BlockedWaiterFreesCpuForThirdTask) {
  core::World w(base_config(1));
  const auto vm = w.add_vm(pinned_vm("vm", 1), false);
  auto& wl = w.attach(
      vm, std::make_unique<TestWorkload>(
              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                auto& m = tw.sync_ctx().make_mutex();
                tw.add_task(
                    k, "holder",
                    std::make_unique<ScriptedBehavior>(std::vector<guest::Action>{
                        guest::Action::lock(m),
                        guest::Action::compute(sim::milliseconds(30)),
                        guest::Action::unlock(m),
                    }),
                    0);
                tw.add_task(
                    k, "waiter",
                    std::make_unique<ScriptedBehavior>(std::vector<guest::Action>{
                        guest::Action::lock(m),
                        guest::Action::unlock(m),
                    }),
                    0);
                tw.add_task(k, "worker",
                            test::compute_behavior(sim::milliseconds(30)), 0);
              }));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(1)));
  // holder and worker timeshare (~60 ms total); waiter costs ~nothing.
  EXPECT_LT(wl.makespan_end(), sim::milliseconds(70));
}

TEST(GuestSched, GuestContextSwitchesAreCounted) {
  core::World w(base_config(1));
  const auto vm = w.add_vm(pinned_vm("vm", 1), false);
  w.attach(vm, std::make_unique<TestWorkload>(
                   "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "a", test::hog_behavior(), 0);
                     tw.add_task(k, "b", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(1));
  // CFS alternates the two hogs every few ms.
  EXPECT_GT(w.kernel(vm).stats().guest_ctx_switches, 100u);
}

TEST(GuestSched, VruntimeFairnessWithThreeTasks) {
  core::World w(base_config(1));
  const auto vm = w.add_vm(pinned_vm("vm", 1), false);
  auto& wl = w.attach(
      vm, std::make_unique<TestWorkload>(
              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                for (int i = 0; i < 3; ++i) {
                  tw.add_task(k, "h" + std::to_string(i), test::hog_behavior(),
                              0);
                }
              }));
  w.start();
  w.run_for(sim::seconds(3));
  for (const guest::Task* t : wl.tasks()) {
    EXPECT_NEAR(sim::to_sec(t->stats.compute_done), 1.0, 0.08) << t->name();
  }
}

TEST(GuestSched, PipelineFlowsThroughStages) {
  core::World w(base_config(2));
  const auto vm = w.add_vm(pinned_vm("vm", 2), false);
  // 2-stage pipeline with explicit scripted producer/consumer.
  auto& wl = w.attach(
      vm, std::make_unique<TestWorkload>(
              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                auto& pipe = tw.sync_ctx().make_pipe(2);
                std::vector<guest::Action> prod;
                for (int i = 0; i < 10; ++i) {
                  prod.push_back(guest::Action::compute(sim::milliseconds(1)));
                  prod.push_back(guest::Action::pipe_push(pipe));
                }
                tw.add_task(k, "prod",
                            std::make_unique<ScriptedBehavior>(prod), 0);
                std::vector<guest::Action> cons;
                for (int i = 0; i < 10; ++i) {
                  cons.push_back(guest::Action::pipe_pop(pipe));
                  cons.push_back(guest::Action::compute(sim::milliseconds(1)));
                }
                tw.add_task(k, "cons",
                            std::make_unique<ScriptedBehavior>(cons), 1);
              }));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(1)));
  // Pipelined: ~11 ms, far below the 20 ms serial bound.
  EXPECT_LT(wl.makespan_end(), sim::milliseconds(16));
}

TEST(GuestSched, StealFracConvergesUnderContention) {
  core::World w(base_config(1));
  const auto vm_a = w.add_vm(pinned_vm("a", 1), false);
  const auto vm_b = w.add_vm(pinned_vm("b", 1), false);
  w.attach(vm_a, std::make_unique<TestWorkload>(
                     "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                       tw.add_task(k, "hog", test::hog_behavior(), 0);
                     }));
  w.attach(vm_b, std::make_unique<TestWorkload>(
                     "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                       tw.add_task(k, "hog", test::hog_behavior(), 0);
                     }));
  w.start();
  w.run_for(sim::seconds(2));
  // Each VM sees ~50% steal on its vCPU.
  EXPECT_NEAR(w.kernel(vm_a).cpu(0).steal_frac(), 0.5, 0.15);
  EXPECT_NEAR(w.kernel(vm_b).cpu(0).steal_frac(), 0.5, 0.15);
}

}  // namespace
}  // namespace irs
