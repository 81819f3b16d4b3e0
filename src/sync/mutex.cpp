#include "src/sync/mutex.h"

#include <cassert>

namespace irs::sync {

AcquireResult Mutex::lock(guest::Task& t) {
  if (owner_ == nullptr) {
    // Waiters may remain: under futex barging (see unlock) a third task can
    // take a freed lock before the woken waiter retries.
    owner_ = &t;
    ++t.locks_held;
    t.held_lock_name = name_.c_str();
    return AcquireResult::kAcquired;
  }
  assert(owner_ != &t && "mutex is not recursive");
  waiters_.push_back(&t);
  return AcquireResult::kBlocked;
}

void Mutex::unlock(guest::Task& t) {
  assert(owner_ == &t && "unlock by non-owner");
  --t.locks_held;
  if (t.locks_held == 0) t.held_lock_name = nullptr;
  owner_ = nullptr;
  if (waiters_.empty()) return;
  guest::Task* next = waiters_.front();
  waiters_.pop_front();
  // Futex barging: the woken waiter retries the acquire when it next runs
  // (Task::reacquire drives the retry in the guest CPU's interpreter); a
  // third task may legitimately take the lock first.
  next->reacquire = this;
  api_.wake_task(*next);
}

}  // namespace irs::sync
