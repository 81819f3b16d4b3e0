#include "src/sync/condvar.h"

#include <cassert>

namespace irs::sync {

void CondVar::wait(guest::Task& t, Mutex& m) {
  assert(m.owner() == &t && "cond wait requires the mutex held");
  m.unlock(t);
  t.reacquire = &m;
  waiters_.push_back(&t);
}

bool CondVar::signal() {
  if (waiters_.empty()) return false;
  guest::Task* w = waiters_.front();
  waiters_.pop_front();
  api_.wake_task(*w);
  return true;
}

int CondVar::broadcast() {
  // Wake exactly the waiters queued now, front first; a task that waits
  // again while this runs queues behind them and stays asleep.
  const int n = static_cast<int>(waiters_.size());
  for (int i = 0; i < n; ++i) signal();
  return n;
}

}  // namespace irs::sync
