#include "src/sync/barrier.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace irs::sync {

Barrier::Barrier(guest::SchedApi& api, int parties, BarrierKind kind,
                 std::string name)
    : api_(api), parties_(parties), kind_(kind), name_(std::move(name)) {
  assert(parties > 0);
}

BarrierResult Barrier::arrive(guest::Task& t) {
  ++arrived_;
  if (arrived_ < parties_) {
    if (kind_ == BarrierKind::kBlocking) {
      blocked_.push_back(&t);
      return BarrierResult::kBlocked;
    }
    // Spinning flavour: remember which generation the task waits for.
    t.spin_ticket = generation_;
    spinners_.push_back(&t);
    return BarrierResult::kSpin;
  }
  // Last arrival: open the barrier for this generation.
  arrived_ = 0;
  ++generation_;
  if (kind_ == BarrierKind::kBlocking) {
    // Only the tasks blocked now: one that arrives again while this runs
    // queues behind them for the next generation.
    for (std::size_t n = blocked_.size(); n > 0; --n) {
      guest::Task* w = blocked_.front();
      blocked_.pop_front();
      api_.wake_task(*w);
    }
  } else {
    // Release every spinner whose loop is actually executing right now;
    // preempted spinners notice on poll() when their vCPU runs again.
    // Granting may re-enter this barrier (the released task can preempt
    // another CPU's spinner, whose poll() removes it from spinners_), so
    // re-scan from scratch after every grant instead of iterating a
    // snapshot.
    for (;;) {
      guest::Task* next = nullptr;
      for (guest::Task* w : spinners_) {
        // Only old-generation waiters are releasable; a re-entrant arrival
        // may already have queued new-generation spinners.
        if (w->spin_ticket != generation_ && api_.task_executing(*w)) {
          next = w;
          break;
        }
      }
      if (next == nullptr) break;
      spinners_.erase(std::find(spinners_.begin(), spinners_.end(), next));
      api_.spin_granted(*next);
    }
  }
  return BarrierResult::kReleased;
}

void Barrier::poll(guest::Task& t) {
  assert(kind_ == BarrierKind::kSpinning);
  if (t.spin_ticket == generation_) return;  // barrier still closed
  auto it = std::find(spinners_.begin(), spinners_.end(), &t);
  if (it == spinners_.end()) return;  // already granted via another path
  spinners_.erase(it);
  api_.spin_granted(t);
}

}  // namespace irs::sync
