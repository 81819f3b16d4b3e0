#include "src/sync/mutex.h"

#include <algorithm>
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
  ++contentions_;
  waiters_.push_back(&t);
  wait_since_.push_back(api_.now());
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
  total_wait_ += api_.now() - wait_since_.front();
  wait_since_.pop_front();
  // Futex barging: the woken waiter retries the acquire when it next runs
  // (Task::reacquire drives the retry in the guest CPU's interpreter); a
  // third task may legitimately take the lock first.
  next->reacquire = this;
  api_.wake_task(*next);
}

bool Mutex::cancel_wait(guest::Task& t) {
  auto it = std::find(waiters_.begin(), waiters_.end(), &t);
  if (it == waiters_.end()) return false;
  wait_since_.erase(wait_since_.begin() + (it - waiters_.begin()));
  waiters_.erase(it);
  return true;
}

}  // namespace irs::sync
