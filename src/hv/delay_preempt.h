// Delay-preemption baseline (Uhlig et al., "Towards scalable multiprocessor
// virtual machines", VM'04 — discussed in paper §2.2).
//
// The guest hints the hypervisor while its current task holds a lock; the
// hypervisor then defers involuntary preemption of that vCPU for a bounded
// window so critical sections complete before the vCPU is descheduled —
// avoiding LHP without any guest-side load balancing. The paper's critique:
// the guest only passes information down and the hypervisor must deviate
// from its scheduling policy; fairness bounds force the window to be small.
#pragma once

#include "src/hv/credit_scheduler.h"
#include "src/hv/types.h"
#include "src/sim/engine.h"

namespace irs::hv {

/// Upper bound on how long a lock-holding vCPU's preemption is deferred.
inline constexpr sim::Duration kDelayPreemptCap = sim::microseconds(500);

class DelayPreemptHook final : public PreemptHook {
 public:
  DelayPreemptHook(sim::Engine& eng, CreditScheduler& sched,
                   StrategyStats& stats);

  /// PreemptHook: defer while the guest signals a held lock, up to the cap.
  bool delay_preemption(Vcpu& cur) override;
  void note_ack(Vcpu& cur) override;

  /// Guest lock hint (routed via Host::note_lock_hint).
  void on_lock_hint(Vcpu& v, bool holds_lock);

 private:
  void expire(Vcpu& v);

  sim::Engine& eng_;
  CreditScheduler& sched_;
  StrategyStats& stats_;
};

}  // namespace irs::hv
