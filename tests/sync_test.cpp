// Unit tests for the guest-level synchronisation primitives, using a fake
// SchedApi so no scheduler machinery is involved.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/guest/sched_api.h"
#include "src/sync/barrier.h"
#include "src/sync/mutex.h"
#include "src/sync/pipe.h"
#include "src/sync/spinlock.h"
#include "src/sync/sync_context.h"
#include "src/sync/work_pool.h"

namespace irs::sync {
namespace {

/// Fake scheduler: tracks wakes/grants; "executing" is an explicit set.
class FakeSched final : public guest::SchedApi {
 public:
  void wake_task(guest::Task& t) override { woken.push_back(&t); }
  [[nodiscard]] bool task_executing(const guest::Task& t) const override {
    for (const auto* e : executing) {
      if (e == &t) return true;
    }
    return false;
  }
  void spin_granted(guest::Task& t) override { granted.push_back(&t); }

  std::vector<guest::Task*> woken;
  std::vector<guest::Task*> granted;
  std::vector<const guest::Task*> executing;
};

class SyncTest : public ::testing::Test {
 protected:
  guest::Task& task(int i) {
    while (tasks_.size() <= static_cast<std::size_t>(i)) {
      const auto id = static_cast<guest::TaskId>(tasks_.size());
      tasks_.push_back(std::make_unique<guest::Task>(
          id, "t" + std::to_string(id), nullptr, sim::Rng(7)));
    }
    return *tasks_[static_cast<std::size_t>(i)];
  }

  FakeSched api_;
  std::vector<std::unique_ptr<guest::Task>> tasks_;
};

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

TEST_F(SyncTest, MutexUncontendedAcquire) {
  Mutex m(api_);
  EXPECT_EQ(m.lock(task(0)), AcquireResult::kAcquired);
  EXPECT_EQ(m.owner(), &task(0));
  EXPECT_EQ(task(0).locks_held, 1);
  m.unlock(task(0));
  EXPECT_EQ(m.owner(), nullptr);
  EXPECT_EQ(task(0).locks_held, 0);
}

TEST_F(SyncTest, MutexContendedBlocksAndWakesFifoWithBarging) {
  Mutex m(api_);
  ASSERT_EQ(m.lock(task(0)), AcquireResult::kAcquired);
  EXPECT_EQ(m.lock(task(1)), AcquireResult::kBlocked);
  EXPECT_EQ(m.lock(task(2)), AcquireResult::kBlocked);
  EXPECT_EQ(m.n_waiters(), 2u);
  m.unlock(task(0));
  // Futex semantics: the lock is free; the head waiter is woken and must
  // retry via Task::reacquire.
  EXPECT_EQ(m.owner(), nullptr);
  ASSERT_EQ(api_.woken.size(), 1u);
  EXPECT_EQ(api_.woken[0], &task(1));
  EXPECT_EQ(task(1).reacquire, &m);
  // A third task can barge in before the woken waiter runs.
  EXPECT_EQ(m.lock(task(3)), AcquireResult::kAcquired);
  // The woken waiter's retry now blocks again.
  task(1).reacquire = nullptr;
  EXPECT_EQ(m.lock(task(1)), AcquireResult::kBlocked);
  m.unlock(task(3));
  EXPECT_EQ(api_.woken.size(), 2u);  // task(2) (FIFO head) woken next
  EXPECT_EQ(api_.woken[1], &task(2));
}

// ---------------------------------------------------------------------------
// Ticket spinlock
// ---------------------------------------------------------------------------

TEST_F(SyncTest, TicketSpinUncontended) {
  SpinLock s(api_);
  EXPECT_EQ(s.lock(task(0)), SpinResult::kAcquired);
  s.unlock(task(0));
  EXPECT_EQ(s.owner(), nullptr);
}

TEST_F(SyncTest, TicketGrantsHeadWaiterOnlyIfExecuting) {
  SpinLock s(api_);
  s.lock(task(0));
  EXPECT_EQ(s.lock(task(1)), SpinResult::kSpin);
  EXPECT_EQ(s.lock(task(2)), SpinResult::kSpin);
  // Head waiter (task1) is NOT executing: release leaves the lock
  // unclaimed even though task2 spins — the LWP stall.
  api_.executing = {&task(2)};
  s.unlock(task(0));
  EXPECT_EQ(s.owner(), nullptr);
  EXPECT_TRUE(api_.granted.empty());
  // Task1's vCPU comes back: poll claims the lock in FIFO order.
  s.poll(task(1));
  EXPECT_EQ(s.owner(), &task(1));
  ASSERT_EQ(api_.granted.size(), 1u);
  EXPECT_EQ(api_.granted[0], &task(1));
}

TEST_F(SyncTest, TicketGrantsExecutingHeadImmediately) {
  SpinLock s(api_);
  s.lock(task(0));
  s.lock(task(1));
  api_.executing = {&task(1)};
  s.unlock(task(0));
  EXPECT_EQ(s.owner(), &task(1));
}

TEST_F(SyncTest, TicketPollOutOfTurnDoesNothing) {
  SpinLock s(api_);
  s.lock(task(0));
  s.lock(task(1));
  s.lock(task(2));
  s.unlock(task(0));
  s.poll(task(2));  // not next in line
  EXPECT_EQ(s.owner(), nullptr);
  s.poll(task(1));
  EXPECT_EQ(s.owner(), &task(1));
}

TEST_F(SyncTest, TicketHandsOffInArrivalOrder) {
  // With every waiter executing, each release passes the lock straight to
  // the next ticket, and the last release leaves it free.
  SpinLock s(api_);
  s.lock(task(0));
  for (int i = 1; i <= 3; ++i) EXPECT_EQ(s.lock(task(i)), SpinResult::kSpin);
  api_.executing = {&task(1), &task(2), &task(3)};
  for (int i = 0; i < 3; ++i) {
    s.unlock(task(i));
    EXPECT_EQ(s.owner(), &task(i + 1));
    EXPECT_EQ(task(i + 1).locks_held, 1);
    EXPECT_EQ(s.n_waiters(), static_cast<std::size_t>(2 - i));
  }
  EXPECT_EQ(api_.granted,
            (std::vector<guest::Task*>{&task(1), &task(2), &task(3)}));
  s.unlock(task(3));
  EXPECT_EQ(s.owner(), nullptr);
  EXPECT_EQ(api_.granted.size(), 3u);
}

TEST_F(SyncTest, TicketNewcomerQueuesBehindAStalledHead) {
  // The lock is free but its head waiter's vCPU is preempted: a task that
  // arrives now, executing or not, takes a ticket behind it rather than
  // barging in.
  SpinLock s(api_);
  s.lock(task(0));
  s.lock(task(1));
  s.unlock(task(0));
  ASSERT_EQ(s.owner(), nullptr);
  api_.executing = {&task(2)};
  EXPECT_EQ(s.lock(task(2)), SpinResult::kSpin);
  EXPECT_EQ(s.owner(), nullptr);
  EXPECT_EQ(task(2).locks_held, 0);
  s.poll(task(2));  // not its turn
  EXPECT_EQ(s.owner(), nullptr);
  s.poll(task(1));
  EXPECT_EQ(s.owner(), &task(1));
  s.unlock(task(1));  // task 2 executing: granted on release
  EXPECT_EQ(s.owner(), &task(2));
  EXPECT_EQ(api_.granted,
            (std::vector<guest::Task*>{&task(1), &task(2)}));
}

TEST_F(SyncTest, SpinLhpClassification) {
  SpinLock s(api_);
  s.lock(task(0));
  EXPECT_EQ(task(0).locks_held, 1);  // holder — LHP candidate
  s.unlock(task(0));
  EXPECT_EQ(task(0).locks_held, 0);
}

TEST_F(SyncTest, HolderCarriesTheLockNameUntilItsLastRelease) {
  // LHP attribution names a preempted holder's lock by
  // Task::held_lock_name: set by every acquire, including a spin grant to
  // a waiter, and cleared only when the task holds no lock at all.
  Mutex m(api_, "m");
  SpinLock s(api_, "s");
  EXPECT_EQ(task(0).held_lock_name, nullptr);
  m.lock(task(0));
  EXPECT_STREQ(task(0).held_lock_name, "m");
  s.lock(task(0));
  EXPECT_STREQ(task(0).held_lock_name, "s");
  EXPECT_EQ(task(0).locks_held, 2);
  s.lock(task(1));
  api_.executing = {&task(1)};
  s.unlock(task(0));
  EXPECT_NE(task(0).held_lock_name, nullptr);  // still holds m
  EXPECT_STREQ(task(1).held_lock_name, "s");   // granted on release
  m.unlock(task(0));
  EXPECT_EQ(task(0).held_lock_name, nullptr);
  EXPECT_EQ(task(0).locks_held, 0);
  s.unlock(task(1));
  EXPECT_EQ(task(1).held_lock_name, nullptr);
}

TEST_F(SyncTest, WaitNameIsThePrimitivesOwnName) {
  // LWP attribution names the primitive a preempted waiter spins on
  // through SpinWaitable::wait_name, which each primitive implements.
  SpinLock s(api_, "jbb.shared");
  Barrier b(api_, 2, BarrierKind::kSpinning, "MG.bar");
  const SpinWaitable& ws = s;
  const SpinWaitable& wb = b;
  EXPECT_STREQ(ws.wait_name(), "jbb.shared");
  EXPECT_STREQ(wb.wait_name(), "MG.bar");
  SpinLock unnamed(api_);
  EXPECT_STREQ(unnamed.wait_name(), "spinlock");
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

TEST_F(SyncTest, BlockingBarrierReleasesAllOnLastArrival) {
  Barrier b(api_, 3, BarrierKind::kBlocking);
  EXPECT_EQ(b.arrive(task(0)), BarrierResult::kBlocked);
  EXPECT_EQ(b.arrive(task(1)), BarrierResult::kBlocked);
  EXPECT_EQ(b.arrive(task(2)), BarrierResult::kReleased);
  EXPECT_EQ(api_.woken.size(), 2u);
  EXPECT_EQ(b.generation(), 1u);
  EXPECT_EQ(b.arrived(), 0);
}

TEST_F(SyncTest, BlockingBarrierReusableAcrossGenerations) {
  Barrier b(api_, 2, BarrierKind::kBlocking);
  for (int gen = 0; gen < 5; ++gen) {
    EXPECT_EQ(b.arrive(task(0)), BarrierResult::kBlocked);
    EXPECT_EQ(b.arrive(task(1)), BarrierResult::kReleased);
  }
  EXPECT_EQ(b.generation(), 5u);
}

TEST_F(SyncTest, SpinningBarrierGrantsExecutingSpinners) {
  Barrier b(api_, 3, BarrierKind::kSpinning);
  EXPECT_EQ(b.arrive(task(0)), BarrierResult::kSpin);
  EXPECT_EQ(b.arrive(task(1)), BarrierResult::kSpin);
  api_.executing = {&task(0)};  // task1's vCPU preempted
  EXPECT_EQ(b.arrive(task(2)), BarrierResult::kReleased);
  ASSERT_EQ(api_.granted.size(), 1u);
  EXPECT_EQ(api_.granted[0], &task(0));
  // task1 resumes later and polls through.
  b.poll(task(1));
  EXPECT_EQ(api_.granted.size(), 2u);
  EXPECT_EQ(api_.granted[1], &task(1));
}

TEST_F(SyncTest, SpinningBarrierPollBeforeOpenDoesNothing) {
  Barrier b(api_, 2, BarrierKind::kSpinning);
  b.arrive(task(0));
  b.poll(task(0));
  EXPECT_TRUE(api_.granted.empty());
}

TEST_F(SyncTest, SpinningBarrierDoubleGrantIsSafe) {
  Barrier b(api_, 2, BarrierKind::kSpinning);
  b.arrive(task(0));
  api_.executing = {&task(0)};
  b.arrive(task(1));
  ASSERT_EQ(api_.granted.size(), 1u);
  b.poll(task(0));  // already granted: silently ignored
  EXPECT_EQ(api_.granted.size(), 1u);
}

// ---------------------------------------------------------------------------
// Pipe
// ---------------------------------------------------------------------------

TEST_F(SyncTest, PipePushPopBasic) {
  Pipe p(api_, 2);
  EXPECT_EQ(p.push(task(0)), AcquireResult::kAcquired);
  EXPECT_EQ(p.size(), 1);
  EXPECT_EQ(p.pop(task(1)), AcquireResult::kAcquired);
  EXPECT_EQ(task(1).wake_value, 1);
  EXPECT_EQ(p.size(), 0);
}

TEST_F(SyncTest, PipeBlocksConsumerWhenEmpty) {
  Pipe p(api_, 2);
  EXPECT_EQ(p.pop(task(0)), AcquireResult::kBlocked);
  EXPECT_EQ(p.blocked_consumers(), 1u);
  p.push(task(1));
  // Item handed straight to the blocked consumer.
  ASSERT_EQ(api_.woken.size(), 1u);
  EXPECT_EQ(api_.woken[0], &task(0));
  EXPECT_EQ(task(0).wake_value, 1);
  EXPECT_EQ(p.size(), 0);
}

TEST_F(SyncTest, PipeBlocksProducerWhenFull) {
  Pipe p(api_, 1);
  p.push(task(0));
  EXPECT_EQ(p.push(task(1)), AcquireResult::kBlocked);
  EXPECT_EQ(p.blocked_producers(), 1u);
  p.pop(task(2));
  // The blocked producer's item takes the freed slot.
  EXPECT_EQ(p.size(), 1);
  ASSERT_EQ(api_.woken.size(), 1u);
  EXPECT_EQ(api_.woken[0], &task(1));
}

TEST_F(SyncTest, PipeCloseWakesConsumersWithNoItem) {
  Pipe p(api_, 2);
  p.pop(task(0));
  p.close();
  ASSERT_EQ(api_.woken.size(), 1u);
  EXPECT_EQ(task(0).wake_value, 0);
  // Future pops on closed+empty return immediately with no item.
  EXPECT_EQ(p.pop(task(1)), AcquireResult::kAcquired);
  EXPECT_EQ(task(1).wake_value, 0);
}

TEST_F(SyncTest, PipeDrainsRemainingItemsAfterClose) {
  Pipe p(api_, 4);
  p.push(task(0));
  p.push(task(0));
  p.close();
  EXPECT_EQ(p.pop(task(1)), AcquireResult::kAcquired);
  EXPECT_EQ(task(1).wake_value, 1);
  EXPECT_EQ(p.pop(task(1)), AcquireResult::kAcquired);
  EXPECT_EQ(task(1).wake_value, 1);
  EXPECT_EQ(p.pop(task(1)), AcquireResult::kAcquired);
  EXPECT_EQ(task(1).wake_value, 0);
}

// ---------------------------------------------------------------------------
// WorkPool
// ---------------------------------------------------------------------------

TEST_F(SyncTest, WorkPoolFifoAndExhaustion) {
  WorkPool pool;
  pool.add(sim::milliseconds(1));
  pool.add_n(2, sim::milliseconds(2));
  EXPECT_EQ(pool.remaining(), 3u);
  EXPECT_EQ(pool.take().value(), sim::milliseconds(1));
  EXPECT_EQ(pool.take().value(), sim::milliseconds(2));
  EXPECT_EQ(pool.take().value(), sim::milliseconds(2));
  EXPECT_FALSE(pool.take().has_value());
  EXPECT_EQ(pool.taken(), 3u);
}

// ---------------------------------------------------------------------------
// SyncContext
// ---------------------------------------------------------------------------

TEST_F(SyncTest, SyncContextOwnsPrimitives) {
  SyncContext ctx(api_);
  Mutex& m1 = ctx.make_mutex("a");
  Mutex& m2 = ctx.make_mutex("b");
  EXPECT_NE(&m1, &m2);
  Barrier& b = ctx.make_barrier(4, BarrierKind::kSpinning);
  EXPECT_EQ(b.parties(), 4);
  SpinLock& s = ctx.make_spinlock("s");
  EXPECT_EQ(s.name(), "s");
  Pipe& p = ctx.make_pipe(8);
  EXPECT_EQ(p.capacity(), 8);
  ctx.make_pool();
}

}  // namespace
}  // namespace irs::sync
