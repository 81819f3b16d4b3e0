// Blocking mutex with futex-style barging, modelling a pthread mutex:
// waiters sleep; unlock releases the lock and wakes the head waiter, which
// must RE-COMPETE for the lock when it runs (another thread may barge in
// first). Barging avoids the lock convoy that strict hand-off develops
// when a woken owner is slow to get back on a CPU — exactly the condition
// virtualisation creates.
#pragma once

#include <deque>
#include <string>

#include "src/guest/sched_api.h"
#include "src/sync/wait.h"

namespace irs::sync {

class Mutex {
 public:
  explicit Mutex(guest::SchedApi& api, std::string name = "mutex")
      : api_(api), name_(std::move(name)) {}

  /// Try to acquire for `t`. On kBlocked the caller must block the task;
  /// a later unlock wakes it with Task::reacquire set so it retries.
  AcquireResult lock(guest::Task& t);

  /// Release; `t` must be the owner. Wakes the head waiter (which then
  /// barges for the lock like any other contender).
  void unlock(guest::Task& t);

  [[nodiscard]] guest::Task* owner() const { return owner_; }
  [[nodiscard]] std::size_t n_waiters() const { return waiters_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  guest::SchedApi& api_;
  std::string name_;
  guest::Task* owner_ = nullptr;
  std::deque<guest::Task*> waiters_;
};

}  // namespace irs::sync
