// Ticket spin lock, like Linux paravirt ticket spinlocks: busy-waiting
// waiters burn CPU until they observe the release, and the grant is FIFO.
// Only the next-in-line waiter may take the lock; if its vCPU is preempted
// the lock stays logically free but unclaimable — the classic LWP stall.
#pragma once

#include <deque>
#include <string>

#include "src/guest/sched_api.h"
#include "src/sync/wait.h"

namespace irs::sync {

class SpinLock final : public SpinWaitable {
 public:
  explicit SpinLock(guest::SchedApi& api, std::string name = "spinlock")
      : api_(api), name_(std::move(name)) {}

  /// Try to acquire for `t`; on kSpin the caller must busy-wait the task
  /// (set spin_waiting etc. — done by the guest CPU interpreter).
  SpinResult lock(guest::Task& t);

  /// Release; grants the lock at once if the head waiter is executing.
  void unlock(guest::Task& t);

  /// SpinWaitable: a waiter's spin loop resumed execution; grant if its
  /// turn has come.
  void poll(guest::Task& t) override;

  [[nodiscard]] guest::Task* owner() const { return owner_; }
  [[nodiscard]] std::size_t n_waiters() const { return waiters_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const char* wait_name() const override { return name_.c_str(); }

 private:
  void grant_head();

  guest::SchedApi& api_;
  std::string name_;
  guest::Task* owner_ = nullptr;
  std::deque<guest::Task*> waiters_;  // FIFO arrival order
};

}  // namespace irs::sync
