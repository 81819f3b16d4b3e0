// Per-task interference attribution: one pass over a trace snapshot that
// charges every hypervisor-level steal window (preemption or runnable wait)
// to the guest task that was on-CPU — and, when the sync layer classified
// the preemption, to the lock that task held (LHP) or spun on (LWP).
//
// This makes the paper's reverse semantic gap visible *per task*: the
// end-of-run counters say how often LHP/LWP happened, the timeline shows
// when, and this profiler says who absorbed the time and through which
// lock. The windows are obs::RunstateReplay's (runstate.h). A window the
// sync layer classed LHP/LWP is charged to the task and lock its
// kLhp/kLwp record names; any other to the task the guest-lane records
// (kGuestSwitch) place on the vCPU. Wake windows on an idle lane are
// charged to the task whose guest-side wake (kGuestWake) triggered them —
// the task is runnable but has not reached the lane yet, so the lane alone
// would under-charge.
//
// Truncated traces are handled explicitly: when the ring wrapped, windows
// whose opening record was dropped are never charged (no kHvPreempt/kHvWake
// was seen, so no window is open), and `head_truncated_at` reports
// retained_head() so consumers can annotate the gap instead of silently
// under-reporting.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/chrome_trace.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace irs::obs {

/// Interference absorbed by one guest task.
struct TaskCharge {
  std::string vm;       // owning VM name ("?" when unknown)
  std::int32_t task = -1;
  std::string label;    // "vm/taskname" (or "vm/task<id>")
  sim::Duration total = 0;  // all steal time charged to this task
  sim::Duration lhp = 0;    // charged while the task held a lock
  sim::Duration lwp = 0;    // charged while the task spun on a lock
  std::uint64_t windows = 0;
  /// Steal time by lock name (LHP/LWP windows with a classified lock).
  std::map<std::string, sim::Duration> by_lock;
};

struct AttributionResult {
  /// Sum of every steal window.
  sim::Duration total_steal = 0;
  /// Portion charged to a specific task.
  sim::Duration charged = 0;
  /// Windows on vCPUs whose guest lane was idle / unknown.
  sim::Duration uncharged = 0;
  /// retained_head(): oldest retained ring record when the ring wrapped;
  /// -1 = complete trace.
  sim::Time head_truncated_at = -1;
  /// Per-task charges, largest total first (ties: vm, then task id).
  std::vector<TaskCharge> tasks;

  [[nodiscard]] double coverage() const {
    return total_steal > 0
               ? static_cast<double>(charged) / static_cast<double>(total_steal)
               : 1.0;
  }
};

/// Walk `records` (snapshot order: oldest first) once and build the
/// per-task interference breakdown. `meta` supplies the vCPU->VM mapping,
/// task names, and the dropped-record count.
AttributionResult attribute(const std::vector<sim::TraceRecord>& records,
                            const TraceMeta& meta);

}  // namespace irs::obs
