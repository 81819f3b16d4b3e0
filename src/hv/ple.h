// Pause-loop-exiting (PLE) emulation.
//
// Real PLE hardware counts PAUSE iterations inside a guest and forces a
// VM-exit when a spin loop exceeds the PLE window; Xen's credit scheduler
// then yields the spinning vCPU. We model the same observable behaviour:
// when a vCPU's guest has been continuously spinning for kPleWindow while
// the vCPU holds a pCPU, the vCPU is charged the exit cost and yielded —
// but only if some other vCPU is waiting (yielding to nobody is pointless,
// matching Xen's behaviour).
//
// The window is checked at boundaries kPleWindow apart, counted from the
// spin signal. A boundary that finds nobody waiting leaves the watch
// dormant instead of polling every window: it records the boundary as its
// anchor, and queues nothing until the pCPU's runqueue grows or the vCPU
// leaves Running (Pcpu's hook calls wake()). The poll then comes back at
// the first anchor + k·kPleWindow strictly after now, the boundary the
// polling chain would have fired at next.
#pragma once

#include "src/hv/credit_scheduler.h"
#include "src/hv/types.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace irs::hv {

/// Continuous guest spin time that triggers a PLE VM-exit.
inline constexpr sim::Duration kPleWindow = sim::microseconds(50);
/// VM-exit + hypervisor handling overhead charged per PLE exit.
inline constexpr sim::Duration kPleExitCost = sim::microseconds(5);

class PleMonitor {
 public:
  PleMonitor(sim::Engine& eng, CreditScheduler& sched,
             std::vector<Pcpu>& pcpus, StrategyStats& stats,
             sim::Trace& trace);

  /// Guest spin-state edge (also re-signalled when a spinning vCPU regains
  /// a pCPU, since preemption resets the hardware's continuity counter).
  void on_spin_signal(Vcpu& v, bool spinning);

  /// `v`'s pCPU gained a waiter or `v` is leaving Running: a dormant watch
  /// queues its poll at the next window boundary. No-op otherwise.
  void wake(Vcpu& v);

 private:
  void poll_at(Vcpu& v, sim::Time when);
  void fire(Vcpu& v);

  sim::Engine& eng_;
  CreditScheduler& sched_;
  std::vector<Pcpu>& pcpus_;
  StrategyStats& stats_;
  sim::Trace& trace_;
};

}  // namespace irs::hv
