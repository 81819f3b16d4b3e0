// Narrow scheduler interface the synchronisation primitives use, so that
// src/sync does not depend on the full guest kernel.
#pragma once

#include "src/guest/task.h"

namespace irs::guest {

class SchedApi {
 public:
  virtual ~SchedApi() = default;

  /// Wake a blocked/sleeping task through the regular wake-up path
  /// (including wake-up balancing and preemption checks).
  virtual void wake_task(Task& t) = 0;

  /// True if the task is the current task of a guest CPU whose vCPU holds a
  /// pCPU right now — i.e. the task's spin loop is actually executing.
  [[nodiscard]] virtual bool task_executing(const Task& t) const = 0;

  /// A spin lock has been granted to `t` while it is executing; the task
  /// leaves its spin loop and continues with its next action.
  virtual void spin_granted(Task& t) = 0;
};

}  // namespace irs::guest
