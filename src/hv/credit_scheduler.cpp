#include "src/hv/credit_scheduler.h"

#include <cassert>
#include <limits>

namespace irs::hv {

CreditScheduler::CreditScheduler(sim::Engine& eng, std::vector<Pcpu>& pcpus,
                                 std::vector<Vm*>& vms, sim::Trace& trace)
    : eng_(eng), pcpus_(pcpus), vms_(vms), trace_(trace) {
  for (auto& p : pcpus_) {
    slice_timers_.emplace_back(eng_,
                               [this, pp = &p]() { request_resched(*pp); });
  }
}

void CreditScheduler::start() {
  for (auto& p : pcpus_) {
    Pcpu* pp = &p;
    // Stagger nothing: ticks are per-pCPU but deterministic order by id.
    std::function<void()> tick = [this, pp]() { on_tick(*pp); };
    p.tick_timer = eng_.schedule(kTickPeriod, tick);
  }
  eng_.schedule(kAccountingPeriod, [this]() { on_accounting(); });
}

void CreditScheduler::request_resched(Pcpu& p) {
  if (p.sched_pending) return;
  p.sched_pending = true;
  eng_.schedule(0, [this, pp = &p]() { do_schedule(*pp); });
}

PcpuId CreditScheduler::cpu_pick(const Vcpu& v) const {
  // 1) the pCPU it last lived on, if idle.
  const PcpuId home = v.resident();
  if (home != kNoPcpu && v.allowed_on(home) && pcpus_[home].idle() &&
      pcpus_[home].queue_len() == 0) {
    return home;
  }
  // 2) any idle allowed pCPU (lowest id).
  for (const auto& p : pcpus_) {
    if (v.allowed_on(p.id()) && p.idle() && p.queue_len() == 0) return p.id();
  }
  // 3) the allowed pCPU whose *resident vCPUs' summed load averages* are
  //    lowest (queue length as tiebreak). This is utilisation-driven and
  //    VM-sibling-oblivious: blocking-sync vCPUs read deceptively idle, so
  //    several of them "fit" on one pCPU next to a full hog elsewhere —
  //    the CPU-stacking behaviour of §5.6.
  score_.assign(pcpus_.size(), 0.0);
  for (const Vm* vm : vms_) {
    for (const Vcpu* w : vm->vcpus()) {
      if (w == &v || w->resident() == kNoPcpu) continue;
      score_[static_cast<std::size_t>(w->resident())] +=
          w->load_avg(eng_.now());
    }
  }
  PcpuId best = kNoPcpu;
  double best_score = std::numeric_limits<double>::max();
  for (const auto& p : pcpus_) {
    if (!v.allowed_on(p.id())) continue;
    const double s = score_[static_cast<std::size_t>(p.id())] +
                     0.05 * static_cast<double>(p.queue_len());
    if (s < best_score) {
      best_score = s;
      best = p.id();
    }
  }
  assert(best != kNoPcpu && "vCPU affinity excludes every pCPU");
  return best;
}

void CreditScheduler::wake(Vcpu& v) {
  if (v.state() != VcpuState::kBlocked) return;  // spurious kick
  v.set_state(VcpuState::kRunnable, eng_.now());
  // credit1 BOOST: a waking vCPU that has not exhausted its credits gets
  // top priority so latency-sensitive guests run promptly.
  if (v.credits() > 0 || v.prio() == CreditPrio::kUnder) {
    v.set_prio(CreditPrio::kBoost);
  }
  const PcpuId target = cpu_pick(v);
  Pcpu& p = pcpus_[target];
  p.enqueue(&v);
  trace_.record(eng_.now(), sim::TraceKind::kHvWake, v.id(), target);
  // Tickle: preempt the current occupant if we beat its priority.
  if (p.idle() || (p.current() && prio_better(v, *p.current()))) {
    request_resched(p);
  }
}

void CreditScheduler::block(Vcpu& v) {
  assert(v.state() == VcpuState::kRunning);
  Pcpu& p = pcpus_[v.pcpu()];
  assert(p.current() == &v);
  // A block acknowledges any outstanding SA (Algorithm 1 line 15).
  if (v.sa_pending()) {
    v.set_sa_pending(false);
    v.sa_cap_timer.cancel();
    if (hook_ != nullptr) hook_->note_ack(v);
  }
  notify_stopped(v, StopReason::kBlocked);
  v.set_state(VcpuState::kBlocked, eng_.now());
  v.set_pcpu(kNoPcpu);
  p.set_current(nullptr);
  slice_timer(p).cancel();
  trace_.record(eng_.now(), sim::TraceKind::kHvBlock, v.id(), p.id());
  request_resched(p);
}

void CreditScheduler::yield(Vcpu& v) {
  assert(v.state() == VcpuState::kRunning);
  Pcpu& p = pcpus_[v.pcpu()];
  assert(p.current() == &v);
  if (v.sa_pending()) {
    v.set_sa_pending(false);
    v.sa_cap_timer.cancel();
    if (hook_ != nullptr) hook_->note_ack(v);
  }
  notify_stopped(v, StopReason::kYielded);
  v.set_state(VcpuState::kRunnable, eng_.now());
  v.set_pcpu(kNoPcpu);
  p.set_current(nullptr);
  slice_timer(p).cancel();
  p.enqueue(&v);  // tail of its priority class
  request_resched(p);
}

void CreditScheduler::force_preempt(Vcpu& v) {
  if (v.state() != VcpuState::kRunning) return;
  Pcpu& p = pcpus_[v.pcpu()];
  assert(p.current() == &v);
  v.set_sa_pending(false);
  v.sa_cap_timer.cancel();
  deschedule_current(p, StopReason::kPreempted);
  request_resched(p);
}

void CreditScheduler::deschedule_current(Pcpu& p, StopReason reason) {
  Vcpu* cur = p.current();
  assert(cur != nullptr && cur->state() == VcpuState::kRunning);
  ++stats_.preemptions;
  notify_stopped(*cur, reason);
  cur->set_state(VcpuState::kRunnable, eng_.now());
  cur->set_pcpu(kNoPcpu);
  p.set_current(nullptr);
  slice_timer(p).cancel();
  p.enqueue(cur);
  // OVER means the vCPU burned through its credit share: the deschedule is
  // a credit throttle, not generic contention — forensics separates the two.
  trace_.record(eng_.now(), sim::TraceKind::kHvPreempt, cur->id(), p.id(),
               cur->prio() == CreditPrio::kOver ? "throttle" : "");
}

void CreditScheduler::notify_stopped(Vcpu& v, StopReason reason) {
  if (!v.guest_active) {
    // Preempted inside the world-switch window: the guest never saw the
    // vCPU start, so it must not see it stop either.
    v.start_notice.cancel();
    return;
  }
  if (reason == StopReason::kPreempted && v.vm().has_guest()) {
    const PreemptClass pc = v.vm().guest().classify_preemption(v.idx());
    // c carries the on-CPU task id and note the lock name so attribution
    // can charge the preemption window to a specific task/lock.
    if (pc.holds_lock) {
      ++v.lhp;
      ++stats_.lhp_events;
      trace_.record(eng_.now(), sim::TraceKind::kLhp, v.id(), v.pcpu(),
                   pc.lock_name != nullptr ? pc.lock_name : "", pc.task);
    }
    if (pc.waits_lock) {
      ++v.lwp;
      ++stats_.lwp_events;
      trace_.record(eng_.now(), sim::TraceKind::kLwp, v.id(), v.pcpu(),
                   pc.lock_name != nullptr ? pc.lock_name : "", pc.task);
    }
  }
  v.guest_active = false;
  if (v.vm().has_guest()) v.vm().guest().vcpu_stopped(v.idx(), reason);
}

void CreditScheduler::switch_to(Pcpu& p, Vcpu* next, bool stolen) {
  if (next == nullptr) {
    p.set_current(nullptr);
    return;
  }
  ++stats_.context_switches;
  next->set_state(VcpuState::kRunning, eng_.now());
  next->set_pcpu(p.id());
  next->set_resident(p.id());
  next->slice_start = eng_.now();
  p.set_current(next);
  trace_.record(eng_.now(), sim::TraceKind::kHvSchedule, next->id(), p.id(),
               stolen ? "steal" : "");
  slice_timer(p).arm(kTimeSlice);
  // Deliver vcpu_started after the world-switch cost.
  next->start_notice.cancel();
  next->guest_active = false;
  Vcpu* nv = next;
  next->start_notice = eng_.schedule(
      kVcpuSwitchCost,
      [nv]() {
        nv->guest_active = true;
        if (nv->vm().has_guest()) nv->vm().guest().vcpu_started(nv->idx());
      });
}

Vcpu* CreditScheduler::steal_for(Pcpu& p) {
  // Scan peers for the best-priority queued vCPU we are allowed to take.
  Vcpu* best = nullptr;
  Pcpu* from = nullptr;
  for (auto& peer : pcpus_) {
    if (peer.id() == p.id()) continue;
    for (Vcpu* v : peer.queue()) {
      if (v->co_stopped || !v->allowed_on(p.id())) continue;
      // credit1 steals only BOOST/UNDER vCPUs; OVER ones have consumed
      // their share and wait for the next accounting refill.
      if (v->prio() == CreditPrio::kOver) continue;
      if (best == nullptr || prio_better(*v, *best)) {
        best = v;
        from = &peer;
      }
      break;  // queue is sorted best-first; first eligible is its best
    }
  }
  if (best != nullptr) from->remove(best);
  return best;
}

void CreditScheduler::do_schedule(Pcpu& p) {
  p.sched_pending = false;
  Vcpu* cur = p.current();
  if (cur != nullptr) {
    // Inside an SA grace window the vCPU keeps the pCPU until the guest
    // acknowledges (or the hard cap fires); never re-preempt here.
    if (cur->sa_pending()) return;
    const bool slice_expired = eng_.now() - cur->slice_start >= kTimeSlice;
    Vcpu* best = p.peek_best();
    const bool boosted_waiter = best != nullptr && prio_better(*best, *cur);
    const bool rotate =
        slice_expired && best != nullptr && prio_not_worse(*best, *cur);
    if (!boosted_waiter && !rotate) {
      if (slice_expired) {
        // Nobody eligible to take over: renew the slice in place.
        cur->slice_start = eng_.now();
        slice_timer(p).arm(kTimeSlice);
      }
      return;
    }
    // Involuntary preemption imminent — IRS gets a chance to notify the
    // guest first (paper Algorithm 1).
    if (hook_ != nullptr && hook_->delay_preemption(*cur)) return;
    deschedule_current(p, StopReason::kPreempted);
  }
  Vcpu* next = p.pop_best();
  bool stolen = false;
  if (next == nullptr && kWorkStealing) {
    next = steal_for(p);
    stolen = next != nullptr;
  }
  switch_to(p, next, stolen);
}

void CreditScheduler::on_tick(Pcpu& p) {
  p.sample_util(eng_.now());
  Vcpu* cur = p.current();
  if (cur != nullptr) {
    cur->add_credits(-kCreditsPerTick, kCreditCap);
    // Ticks degrade BOOST back to a credit-derived priority.
    cur->refresh_prio();
    Vcpu* best = p.peek_best();
    if (best != nullptr && prio_better(*best, *cur)) request_resched(p);
  } else if (p.queue_len() > 0 || kWorkStealing) {
    // Idle pCPU with queued/stealable work (can happen transiently).
    request_resched(p);
  }
  p.tick_timer =
      eng_.schedule(kTickPeriod, [this, pp = &p]() { on_tick(*pp); });
}

void CreditScheduler::on_accounting() {
  // Total credits minted per accounting period across the host.
  const std::int64_t ticks_per_period = kAccountingPeriod / kTickPeriod;
  const std::int64_t total = ticks_per_period * kCreditsPerTick *
                             static_cast<std::int64_t>(pcpus_.size());

  // A VM is active if any of its vCPUs is not blocked.
  std::int64_t total_weight = 0;
  for (Vm* vm : vms_) {
    bool active = false;
    for (Vcpu* v : vm->vcpus()) {
      if (v->state() != VcpuState::kBlocked) active = true;
    }
    if (active) total_weight += vm->weight();
  }
  if (total_weight > 0) {
    for (Vm* vm : vms_) {
      bool active = false;
      for (Vcpu* v : vm->vcpus()) {
        if (v->state() != VcpuState::kBlocked) active = true;
      }
      if (!active) continue;
      // credit1 splits the domain's share across all of its vCPUs; idle
      // ones accumulate up to the cap (one slice's worth), which is what
      // lets a mostly-idle vCPU BOOST promptly when it wakes.
      const std::int64_t share = total * vm->weight() / total_weight;
      const std::int32_t per_vcpu = static_cast<std::int32_t>(
          share / static_cast<std::int64_t>(vm->n_vcpus()));
      for (Vcpu* v : vm->vcpus()) v->add_credits(per_vcpu, kCreditCap);
    }
  }
  // Refresh priorities (clears BOOST) and re-sort queues accordingly.
  for (Vm* vm : vms_) {
    for (Vcpu* v : vm->vcpus()) v->refresh_prio();
  }
  rebuild_queues();
  for (auto& p : pcpus_) request_resched(p);
  eng_.schedule(kAccountingPeriod, [this]() { on_accounting(); });
}

void CreditScheduler::rebuild_queues() {
  // Re-enqueueing in the old order sorts the queue stably by class:
  // enqueue() puts each vCPU at the tail of its class.
  for (auto& p : pcpus_) {
    requeue_.assign(p.queue().begin(), p.queue().end());
    while (p.queue_len() > 0) {
      p.remove(p.queue().front());
    }
    for (Vcpu* v : requeue_) p.enqueue(v);
  }
}

}  // namespace irs::hv
