// A guest task (thread) — the unit the Linux-model scheduler schedules and
// the IRS migrator moves.
#pragma once

#include <cstdint>
#include <string>

#include "src/guest/action.h"
#include "src/guest/types.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"
#include "src/sync/wait.h"

namespace irs::sync {
class Mutex;
}  // namespace irs::sync

namespace irs::guest {

/// Per-task statistics, exported to the metrics layer.
struct TaskStats {
  sim::Duration compute_done = 0;  // useful CPU time completed
  sim::Duration spin_time = 0;     // CPU burnt spinning
  std::uint64_t migrations = 0;    // cross-CPU moves (all causes)
  std::uint64_t wakeups = 0;
  sim::Time finished_at = -1;
};

class Task {
 public:
  Task(TaskId id, std::string name, Behavior* behavior, sim::Rng rng)
      : id_(id), name_(std::move(name)), behavior_(behavior), rng_(rng) {}

  [[nodiscard]] TaskId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Behavior& behavior() const { return *behavior_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  [[nodiscard]] TaskState state() const { return state_; }
  void set_state(TaskState s) { state_ = s; }
  [[nodiscard]] bool finished() const { return state_ == TaskState::kFinished; }

  /// Guest CPU index the task is on (running/ready) or last ran on.
  [[nodiscard]] int cpu() const { return cpu_; }
  void set_cpu(int c) { cpu_ = c; }

  // --- CFS bookkeeping ---
  sim::Duration vruntime = 0;
  /// CPU time consumed since the task was last picked (slice check).
  sim::Duration slice_used = 0;

  // --- current in-flight action ---
  /// The action being executed; kind kCompute means op_remaining of CPU is
  /// still owed. After a blocking action completes via wake-up, `op` is
  /// reset and the behavior is asked for the next action.
  Action op;
  sim::Duration op_remaining = 0;
  bool has_op = false;

  /// Mutex to retry when resuming after its unlock woke this task (futex
  /// barging: another task may have taken it first).
  sync::Mutex* reacquire = nullptr;

  /// Out-of-band result of the last blocking primitive op (e.g. Pipe::pop
  /// sets 1 = item received, 0 = pipe closed empty). Read by behaviours.
  int wake_value = 0;

  // --- synchronisation status (for LHP/LWP classification) ---
  int locks_held = 0;
  /// Name of the most recently acquired still-held lock (nullptr when none).
  /// Maintained by the sync layer so LHP records can name the lock; with
  /// nested locks only the innermost name is kept — good enough for
  /// attribution, which wants *a* culprit, not the full held set.
  const char* held_lock_name = nullptr;
  /// Primitive this task is busy-waiting on (nullptr when not spinning).
  sync::SpinWaitable* spin_waiting = nullptr;
  std::uint64_t spin_ticket = 0;

  // --- IRS migrating tag (paper §3.3, Fig. 4) ---
  bool migrating_tag = false;
  /// CPU time executed since tagged (tag expires after tag_ttl).
  sim::Duration tag_runtime = 0;
  /// The vCPU the task was displaced from; the load balancer prefers to
  /// migrate it back there once that vCPU is schedulable again.
  int irs_home = kNoCpu;

  /// Cache-locality debt added to the next compute burst after a migration.
  sim::Duration cache_debt = 0;

  /// Timer for kSleep wake-ups.
  sim::EventHandle sleep_timer;

  TaskStats stats;

 private:
  TaskId id_;
  std::string name_;
  Behavior* behavior_;  // owned by the workload layer
  sim::Rng rng_;
  TaskState state_ = TaskState::kReady;
  int cpu_ = kNoCpu;
};

}  // namespace irs::guest
