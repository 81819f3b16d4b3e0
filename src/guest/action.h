// The instruction set tasks execute, and the Behavior interface workloads
// implement.
//
// A task is a state machine: whenever the guest scheduler gives it the CPU
// and its previous action has completed, it asks its Behavior for the next
// Action. Compute consumes simulated CPU time; synchronisation actions act
// on primitives in src/sync and may block or spin the task.
#pragma once

#include <cstdint>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace irs::sync {
class Mutex;
class SpinLock;
class Barrier;
class Pipe;
}  // namespace irs::sync

namespace irs::guest {

class Task;

enum class ActionKind : std::uint8_t {
  kCompute,     // burn `dur` of CPU
  kLock,        // acquire blocking mutex
  kUnlock,      // release blocking mutex
  kSpinLock,    // acquire ticket spin lock (busy-waits)
  kSpinUnlock,  // release spin lock
  kBarrier,     // arrive at a (blocking or spinning) barrier
  kPipePush,    // bounded-queue push; blocks when full
  kPipePop,     // bounded-queue pop; blocks when empty
  kSleep,       // timed sleep (off-CPU)
  kFinish,      // task is done
};

struct Action {
  ActionKind kind = ActionKind::kFinish;
  sim::Duration dur = 0;      // kCompute / kSleep
  sync::Mutex* mtx = nullptr;
  sync::SpinLock* sl = nullptr;
  sync::Barrier* bar = nullptr;
  sync::Pipe* pp = nullptr;

  // Named constructors keep workload code readable.
  static Action compute(sim::Duration d) {
    return {.kind = ActionKind::kCompute, .dur = d};
  }
  static Action lock(sync::Mutex& m) {
    return {.kind = ActionKind::kLock, .mtx = &m};
  }
  static Action unlock(sync::Mutex& m) {
    return {.kind = ActionKind::kUnlock, .mtx = &m};
  }
  static Action spin_lock(sync::SpinLock& s) {
    return {.kind = ActionKind::kSpinLock, .sl = &s};
  }
  static Action spin_unlock(sync::SpinLock& s) {
    return {.kind = ActionKind::kSpinUnlock, .sl = &s};
  }
  static Action barrier(sync::Barrier& b) {
    return {.kind = ActionKind::kBarrier, .bar = &b};
  }
  static Action pipe_push(sync::Pipe& p) {
    return {.kind = ActionKind::kPipePush, .pp = &p};
  }
  static Action pipe_pop(sync::Pipe& p) {
    return {.kind = ActionKind::kPipePop, .pp = &p};
  }
  static Action sleep(sim::Duration d) {
    return {.kind = ActionKind::kSleep, .dur = d};
  }
  static Action finish() { return {.kind = ActionKind::kFinish}; }
};

/// Implemented by workload models (src/wl). One Behavior instance per task.
class Behavior {
 public:
  virtual ~Behavior() = default;

  /// Produce the task's next action. Called when the previous action has
  /// completed and the task holds a CPU. `now` is the simulated time.
  virtual Action next(Task& task, sim::Time now, sim::Rng& rng) = 0;
};

}  // namespace irs::guest
