// Unit tests for hypervisor building blocks: Vcpu accounting and Pcpu
// runqueue ordering.
#include <gtest/gtest.h>

#include "src/hv/pcpu.h"
#include "src/hv/vcpu.h"
#include "src/hv/vm.h"

namespace irs::hv {
namespace {

VmConfig small_vm() {
  VmConfig cfg;
  cfg.n_vcpus = 1;
  return cfg;
}

TEST(Vcpu, StartsBlocked) {
  Vm vm(0, small_vm());
  Vcpu v(0, &vm, 0);
  EXPECT_EQ(v.state(), VcpuState::kBlocked);
  EXPECT_EQ(v.pcpu(), kNoPcpu);
}

TEST(Vcpu, RunstateAccountingSplitsTime) {
  Vm vm(0, small_vm());
  Vcpu v(0, &vm, 0);
  v.set_state(VcpuState::kRunnable, sim::milliseconds(10));  // blocked 0..10
  v.set_state(VcpuState::kRunning, sim::milliseconds(25));   // runnable 10..25
  v.set_state(VcpuState::kBlocked, sim::milliseconds(60));   // running 25..60

  const sim::Time now = sim::milliseconds(100);
  EXPECT_EQ(v.time_blocked(now), sim::milliseconds(10 + 40));
  EXPECT_EQ(v.time_runnable(now), sim::milliseconds(15));
  EXPECT_EQ(v.time_running(now), sim::milliseconds(35));
}

TEST(Vcpu, InProgressStateCountsUpToNow) {
  Vm vm(0, small_vm());
  Vcpu v(0, &vm, 0);
  v.set_state(VcpuState::kRunning, 0);
  EXPECT_EQ(v.time_running(sim::milliseconds(7)), sim::milliseconds(7));
  const RunstateInfo rs = v.runstate(sim::milliseconds(7));
  EXPECT_EQ(rs.state, VcpuState::kRunning);
  EXPECT_EQ(rs.time_running, sim::milliseconds(7));
}

TEST(Vcpu, AffinityEmptyMeansAnywhere) {
  Vm vm(0, small_vm());
  Vcpu v(0, &vm, 0);
  EXPECT_TRUE(v.allowed_on(0));
  EXPECT_TRUE(v.allowed_on(17));
  v.set_affinity({2});
  EXPECT_FALSE(v.allowed_on(0));
  EXPECT_TRUE(v.allowed_on(2));
}

TEST(Vcpu, CreditsClampAtCap) {
  Vm vm(0, small_vm());
  Vcpu v(0, &vm, 0);
  v.add_credits(1000, 300);
  EXPECT_EQ(v.credits(), 300);
  v.add_credits(-5000, 300);
  EXPECT_EQ(v.credits(), -300);
}

TEST(Vcpu, RefreshPrioFollowsCredits) {
  Vm vm(0, small_vm());
  Vcpu v(0, &vm, 0);
  v.add_credits(10, 300);
  v.set_prio(CreditPrio::kBoost);
  v.refresh_prio();
  EXPECT_EQ(v.prio(), CreditPrio::kUnder);
  v.add_credits(-20, 300);
  v.refresh_prio();
  EXPECT_EQ(v.prio(), CreditPrio::kOver);
}

class PcpuQueueTest : public ::testing::Test {
 protected:
  PcpuQueueTest() : vm_(0, small_vm()), p_(0) {
    for (int i = 0; i < 6; ++i) {
      vcpus_.push_back(std::make_unique<Vcpu>(i, &vm_, i));
    }
  }
  Vm vm_;
  Pcpu p_;
  std::vector<std::unique_ptr<Vcpu>> vcpus_;
};

TEST_F(PcpuQueueTest, EnqueueSortsByPriorityClass) {
  vcpus_[0]->set_prio(CreditPrio::kOver);
  vcpus_[1]->set_prio(CreditPrio::kUnder);
  vcpus_[2]->set_prio(CreditPrio::kBoost);
  p_.enqueue(vcpus_[0].get());
  p_.enqueue(vcpus_[1].get());
  p_.enqueue(vcpus_[2].get());
  EXPECT_EQ(p_.peek_best(), vcpus_[2].get());
  EXPECT_EQ(p_.pop_best(), vcpus_[2].get());
  EXPECT_EQ(p_.pop_best(), vcpus_[1].get());
  EXPECT_EQ(p_.pop_best(), vcpus_[0].get());
  EXPECT_EQ(p_.pop_best(), nullptr);
}

TEST_F(PcpuQueueTest, FifoWithinClass) {
  for (int i = 0; i < 3; ++i) {
    vcpus_[static_cast<size_t>(i)]->set_prio(CreditPrio::kUnder);
    p_.enqueue(vcpus_[static_cast<size_t>(i)].get());
  }
  EXPECT_EQ(p_.pop_best(), vcpus_[0].get());
  EXPECT_EQ(p_.pop_best(), vcpus_[1].get());
  EXPECT_EQ(p_.pop_best(), vcpus_[2].get());
}

TEST_F(PcpuQueueTest, EnqueueFrontGoesToHeadOfClass) {
  vcpus_[0]->set_prio(CreditPrio::kUnder);
  vcpus_[1]->set_prio(CreditPrio::kUnder);
  vcpus_[2]->set_prio(CreditPrio::kBoost);
  p_.enqueue(vcpus_[0].get());
  p_.enqueue(vcpus_[2].get());
  p_.enqueue_front(vcpus_[1].get());
  // Boost vcpu still first; vcpu1 ahead of vcpu0 within UNDER.
  EXPECT_EQ(p_.pop_best(), vcpus_[2].get());
  EXPECT_EQ(p_.pop_best(), vcpus_[1].get());
  EXPECT_EQ(p_.pop_best(), vcpus_[0].get());
}

TEST_F(PcpuQueueTest, RemoveSpecific) {
  p_.enqueue(vcpus_[0].get());
  p_.enqueue(vcpus_[1].get());
  EXPECT_TRUE(p_.remove(vcpus_[0].get()));
  EXPECT_FALSE(p_.remove(vcpus_[0].get()));
  EXPECT_EQ(p_.queue_len(), 1u);
}

TEST_F(PcpuQueueTest, CoStoppedSkippedByPick) {
  vcpus_[0]->co_stopped = true;
  p_.enqueue(vcpus_[0].get());
  p_.enqueue(vcpus_[1].get());
  EXPECT_EQ(p_.peek_best(), vcpus_[1].get());
  EXPECT_EQ(p_.pop_best(), vcpus_[1].get());
  EXPECT_EQ(p_.peek_best(), nullptr);  // only co-stopped left
  EXPECT_EQ(p_.queue_len(), 1u);
}

TEST_F(PcpuQueueTest, LoadCountsCurrentAndQueue) {
  EXPECT_EQ(p_.load(), 0u);
  p_.set_current(vcpus_[0].get());
  EXPECT_EQ(p_.load(), 1u);
  p_.enqueue(vcpus_[1].get());
  EXPECT_EQ(p_.load(), 2u);
  EXPECT_FALSE(p_.idle());
}

TEST_F(PcpuQueueTest, EnqueueSetsResident) {
  p_.enqueue(vcpus_[3].get());
  EXPECT_EQ(vcpus_[3]->resident(), 0);
}

}  // namespace
}  // namespace irs::hv
