#include "src/hv/delay_preempt.h"

#include "src/hv/host.h"

namespace irs::hv {

DelayPreemptHook::DelayPreemptHook(sim::Engine& eng, CreditScheduler& sched,
                                   StrategyStats& stats)
    : eng_(eng), sched_(sched), stats_(stats) {}

bool DelayPreemptHook::delay_preemption(Vcpu& cur) {
  if (cur.state() != VcpuState::kRunning) return false;
  if (!cur.lock_hint) return false;  // not in a critical section
  if (cur.sa_pending()) return true;  // delay window already open
  // Open a bounded delay window; re-uses the SA pending plumbing (the
  // scheduler will not re-preempt while pending).
  cur.set_sa_pending(true);
  cur.sa_sent_at = eng_.now();
  ++stats_.delay_grants;
  Vcpu* v = &cur;
  cur.sa_cap_timer =
      eng_.schedule(kDelayPreemptCap, [this, v]() { expire(*v); });
  return true;
}

void DelayPreemptHook::expire(Vcpu& v) {
  if (!v.sa_pending()) return;
  v.set_sa_pending(false);
  ++stats_.delay_expired;
  sched_.force_preempt(v);
}

void DelayPreemptHook::note_ack(Vcpu& v) {
  (void)v;  // voluntary yield/block while delayed; nothing extra to do
}

void DelayPreemptHook::on_lock_hint(Vcpu& v, bool holds_lock) {
  v.lock_hint = holds_lock;
  if (!holds_lock && v.sa_pending()) {
    // Critical section finished inside the delay window: complete the
    // deferred preemption now.
    v.sa_cap_timer.cancel();
    v.set_sa_pending(false);
    ++stats_.delay_released;
    if (v.state() == VcpuState::kRunning) sched_.force_preempt(v);
  }
}

}  // namespace irs::hv
