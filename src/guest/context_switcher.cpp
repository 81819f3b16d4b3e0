// IRS guest half, part 2: the context switcher (paper §3.2, Algorithm 1).
//
// Runs as the UPCALL_SOFTIRQ handler. It makes the guest's view match the
// imminent hypervisor preemption: the current task is descheduled and
// tagged "migrating", the migrator is woken asynchronously to move it to a
// live sibling vCPU, and the hypervisor is acknowledged with SCHEDOP_block
// (runqueue empty — the vCPU should be treated as idle) or SCHEDOP_yield
// (more work queued — stay runnable), preserving Xen's state-dependent
// scheduling policies.
#include "src/guest/guest_cpu.h"
#include "src/guest/guest_kernel.h"

namespace irs::guest {

void GuestCpu::upcall_softirq() {
  if (!vcpu_running_) return;
  Task* t = current_;
  // Safety valve: if no sibling vCPU could possibly run the migrator (all
  // others hypervisor-blocked), descheduling the task would strand it in
  // migration limbo. Decline the activation and let the preemption proceed
  // vanilla-style.
  if (t != nullptr && !kernel_.sibling_may_execute(idx_)) {
    ++kernel_.stats().sa_replied_yield;
    kernel_.hypercalls().sched_yield(idx_);
    return;
  }
  // Decline when the migrator has nowhere better to put the task — every
  // sibling preempted (Algorithm 2 falls back to this vCPU) or equally
  // contended: descheduling would only cede this vCPU's share and
  // desynchronise the VM.
  if (t != nullptr && !kernel_.migrator().migration_worthwhile(idx_)) {
    ++kernel_.stats().sa_replied_yield;
    kernel_.hypercalls().sched_yield(idx_);
    return;
  }
  if (t != nullptr) {
    stop_exec();
    if (t->spin_waiting != nullptr) kernel_.signal_spin(idx_, false);
    t->set_state(TaskState::kMigrating);
    t->migrating_tag = true;
    t->tag_runtime = 0;
    t->irs_home = idx_;
    current_ = nullptr;
    // Put another runnable task on the vCPU if there is one; it will run
    // when the (now runnable) vCPU is next scheduled.
    if (Task* next = rq_.pop_leftmost()) {
      install(next, /*resume=*/false);
    }
    // Wake the migrator asynchronously (it runs on some live sibling).
    kernel_.migrator().request(*t, idx_);
  } else if (current_ == nullptr && !rq_.empty()) {
    install(rq_.pop_leftmost(), /*resume=*/false);
  }
  // Lane record: install() above traced any replacement task; if the CPU
  // ends up empty the lane goes idle with an "sa-cs" marker so timelines
  // show the context switcher (not the scheduler) vacated it.
  if (current_ == nullptr) trace_lane(-1, "sa-cs");
  // Acknowledge: return control to the hypervisor (Algorithm 1 line 15).
  if (current_ == nullptr && rq_.empty()) {
    ++kernel_.stats().sa_replied_block;
    kernel_.hypercalls().sched_block(idx_);
  } else {
    ++kernel_.stats().sa_replied_yield;
    kernel_.hypercalls().sched_yield(idx_);
  }
}

}  // namespace irs::guest
