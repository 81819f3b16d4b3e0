// IRS hypervisor half: the scheduler-activation sender (paper §3.1, §4.1).
//
// Hooks the credit scheduler's involuntary-preemption path. When a runnable
// vCPU of an SA-registered guest is about to be preempted and has no SA
// outstanding, the sender delivers VIRQ_SA_UPCALL, marks the SA pending, and
// lets the vCPU keep running until the guest acknowledges via SCHEDOP_yield /
// SCHEDOP_block — bounded by a hard cap against rogue guests.
#pragma once

#include "src/hv/credit_scheduler.h"
#include "src/hv/types.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace irs::hv {

class SaSender final : public PreemptHook {
 public:
  SaSender(sim::Engine& eng, const HvConfig& cfg, CreditScheduler& sched,
           StrategyStats& stats, sim::Trace& trace);

  /// PreemptHook: returns true if preemption was deferred pending guest ack.
  bool delay_preemption(Vcpu& cur) override;

  /// Called by the scheduler paths that complete an SA (yield/block clear
  /// the pending flag there); used here only for delay accounting.
  void note_ack(Vcpu& v);

 private:
  sim::Engine& eng_;
  const HvConfig& cfg_;
  CreditScheduler& sched_;
  StrategyStats& stats_;
  sim::Trace& trace_;
};

}  // namespace irs::hv
