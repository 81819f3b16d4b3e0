// IRS guest half, part 1: the SA receiver (paper §3.1, §4.2).
//
// The receiver is the interrupt handler of VIRQ_SA_UPCALL. Interrupt
// handlers must stay small, so it only raises UPCALL_SOFTIRQ; the heavy
// lifting (context switch + migrator wake-up + hypervisor acknowledgement)
// happens in the softirq bottom half — see context_switcher.cpp. The
// modelled handler cost is the paper's measured 20–26 us, jittered.
#include "src/guest/guest_cpu.h"
#include "src/guest/guest_kernel.h"

namespace irs::guest {

void GuestCpu::on_sa_upcall() {
  if (!vcpu_running_) return;  // raced with a forced preemption
  ++kernel_.stats().sa_received;
  softirq_.raise(SoftirqNr::kUpcall);
  const sim::Duration cost = kernel_.cost_rng().jittered(kSaHandlerCost, 0.15);
  sa_bh_timer_ = kernel_.engine().schedule(
      cost,
      [this]() {
        // UPCALL_SOFTIRQ has lower priority than TIMER_SOFTIRQ: a pending
        // timer tick is processed first (run_pending drains in order), so
        // a task the timer wanted to switch out is not migrated by IRS.
        if (vcpu_running_) softirq_.run_pending(SoftirqNr::kUpcall);
      });
}

}  // namespace irs::guest
