#include "src/sync/spinlock.h"

#include <cassert>

namespace irs::sync {

SpinResult SpinLock::lock(guest::Task& t) {
  if (owner_ == nullptr && waiters_.empty()) {
    owner_ = &t;
    ++t.locks_held;
    t.held_lock_name = name_.c_str();
    return SpinResult::kAcquired;
  }
  waiters_.push_back(&t);
  return SpinResult::kSpin;
}

void SpinLock::grant_head() {
  assert(owner_ == nullptr && !waiters_.empty());
  guest::Task& t = *waiters_.front();
  waiters_.pop_front();
  owner_ = &t;
  ++t.locks_held;
  t.held_lock_name = name_.c_str();
  api_.spin_granted(t);
}

void SpinLock::unlock(guest::Task& t) {
  assert(owner_ == &t && "unlock by non-owner");
  --t.locks_held;
  if (t.locks_held == 0) t.held_lock_name = nullptr;
  owner_ = nullptr;
  if (waiters_.empty()) return;
  // Strict FIFO: only the head waiter may take the lock. If its vCPU is
  // preempted, nobody gets the lock until that vCPU runs again (LWP).
  if (api_.task_executing(*waiters_.front())) grant_head();
}

void SpinLock::poll(guest::Task& t) {
  if (owner_ != nullptr) return;
  if (!waiters_.empty() && waiters_.front() == &t) grant_head();
}

}  // namespace irs::sync
