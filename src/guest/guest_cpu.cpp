#include "src/guest/guest_cpu.h"

#include <algorithm>
#include <cassert>

#include "src/guest/guest_kernel.h"
#include "src/sync/mutex.h"
#include "src/sync/barrier.h"
#include "src/sync/pipe.h"
#include "src/sync/spinlock.h"

namespace irs::guest {

GuestCpu::GuestCpu(GuestKernel& kernel, int idx)
    : kernel_(kernel),
      idx_(idx),
      tick_timer_(kernel.engine(), [this]() { on_tick(); }),
      idle_poll_(
          kernel.engine(),
          [this]() {
            if (!vcpu_running_ && guest_idle()) kernel_.kick_if_blocked(idx_);
          }) {
  softirq_.set_handler(SoftirqNr::kTimer, [this]() { timer_softirq(); });
  softirq_.set_handler(SoftirqNr::kUpcall, [this]() { upcall_softirq(); });
  // Stagger the first periodic balance so CPUs don't all balance at once.
  next_balance_ = kBalanceInterval * (idx + 1);
}

double GuestCpu::load_score() const {
  // rt_avg-style: guest-visible runnable load plus hypervisor contention.
  // Steal is weighted up because a contended vCPU delays everything on it.
  return static_cast<double>(nr_running()) + 2.0 * steal_.steal_frac();
}

sim::Duration GuestCpu::cfs_slice() const {
  const auto nr = std::max<std::size_t>(1, nr_running());
  return std::max(kSchedLatency / static_cast<sim::Duration>(nr),
                  kMinGranularity);
}

// ---------------------------------------------------------------------------
// Execution clock
// ---------------------------------------------------------------------------

void GuestCpu::stop_exec() {
  if (!exec_active_) return;
  exec_active_ = false;
  op_done_.cancel();
  assert(current_ != nullptr);
  Task& t = *current_;
  const sim::Duration delta = kernel_.engine().now() - exec_start_;
  if (delta <= 0) return;
  t.vruntime += delta;
  t.slice_used += delta;
  if (Task* left = rq_.leftmost()) {
    rq_.advance_min_vruntime(std::min(t.vruntime, left->vruntime));
  } else {
    rq_.advance_min_vruntime(t.vruntime);
  }
  if (t.migrating_tag) {
    t.tag_runtime += delta;
    if (t.tag_runtime >= kTagTtl) t.migrating_tag = false;
  }
  if (t.state() == TaskState::kSpinning) {
    t.stats.spin_time += delta;
  } else if (t.has_op && t.op.kind == ActionKind::kCompute) {
    t.op_remaining = std::max<sim::Duration>(0, t.op_remaining - delta);
    t.stats.compute_done += delta;
  }
}

void GuestCpu::resume_current() {
  if (!vcpu_running_ || current_ == nullptr) return;
  if (maybe_resched()) return;
  Task& t = *current_;
  if (t.spin_waiting != nullptr) {
    // Re-enter the busy-wait loop; poll() may grant immediately (e.g. the
    // lock was released while our vCPU was preempted).
    t.set_state(TaskState::kSpinning);
    exec_start_ = kernel_.engine().now();
    exec_active_ = true;
    kernel_.signal_spin(idx_, true);
    t.spin_waiting->poll(t);
    return;
  }
  if (t.has_op && t.op.kind == ActionKind::kCompute) {
    t.op_remaining += pending_overhead_;
    pending_overhead_ = 0;
    exec_start_ = kernel_.engine().now();
    exec_active_ = true;
    op_done_ = kernel_.engine().schedule(t.op_remaining,
                                         [this]() { on_op_complete(); });
    return;
  }
  interpret();
}

void GuestCpu::on_op_complete() {
  stop_exec();
  assert(current_ != nullptr);
  current_->has_op = false;
  interpret();
}

// ---------------------------------------------------------------------------
// The action interpreter
// ---------------------------------------------------------------------------

void GuestCpu::update_lock_hint() {
  const bool h = current_ != nullptr && current_->locks_held > 0;
  if (h != lock_hint_) {
    lock_hint_ = h;
    kernel_.signal_lock_hint(idx_, h);
  }
}

void GuestCpu::interpret() {
  assert(current_ != nullptr && vcpu_running_);
  for (int guard = 0; guard < 256; ++guard) {
    update_lock_hint();
    // Releasing the last lock can end a delay-preemption window, which
    // deschedules this vCPU synchronously; on_vcpu_start() resumes the task.
    if (!vcpu_running_) return;
    if (maybe_resched()) return;
    Task& t = *current_;
    // Woken by a mutex unlock: retry the acquire first (futex barging).
    if (t.reacquire != nullptr) {
      sync::Mutex* m = t.reacquire;
      t.reacquire = nullptr;
      if (m->lock(t) == sync::AcquireResult::kBlocked) {
        block_current(TaskState::kBlocked);
        return;
      }
      continue;
    }
    if (!t.has_op) {
      t.op = t.behavior().next(t, kernel_.engine().now(), t.rng());
      t.has_op = true;
      if (t.op.kind == ActionKind::kCompute) {
        t.op_remaining = t.op.dur + t.cache_debt;
        t.cache_debt = 0;
      }
    }
    const Action a = t.op;
    switch (a.kind) {
      case ActionKind::kCompute: {
        t.op_remaining += pending_overhead_;
        pending_overhead_ = 0;
        exec_start_ = kernel_.engine().now();
        exec_active_ = true;
        op_done_ = kernel_.engine().schedule(t.op_remaining,
                                             [this]() { on_op_complete(); });
        return;
      }
      case ActionKind::kLock: {
        t.has_op = false;
        if (a.mtx->lock(t) == sync::AcquireResult::kAcquired) continue;
        block_current(TaskState::kBlocked);
        return;
      }
      case ActionKind::kUnlock: {
        t.has_op = false;
        a.mtx->unlock(t);
        continue;
      }
      case ActionKind::kSpinLock: {
        if (a.sl->lock(t) == sync::SpinResult::kAcquired) {
          t.has_op = false;
          continue;
        }
        enter_spin(*a.sl);
        return;
      }
      case ActionKind::kSpinUnlock: {
        t.has_op = false;
        a.sl->unlock(t);
        continue;
      }
      case ActionKind::kBarrier: {
        switch (a.bar->arrive(t)) {
          case sync::BarrierResult::kReleased:
            t.has_op = false;
            continue;
          case sync::BarrierResult::kBlocked:
            t.has_op = false;
            block_current(TaskState::kBlocked);
            return;
          case sync::BarrierResult::kSpin:
            enter_spin(*a.bar);
            return;
        }
        continue;
      }
      case ActionKind::kPipePush: {
        t.has_op = false;
        if (a.pp->push(t) == sync::AcquireResult::kAcquired) continue;
        block_current(TaskState::kBlocked);
        return;
      }
      case ActionKind::kPipePop: {
        t.has_op = false;
        if (a.pp->pop(t) == sync::AcquireResult::kAcquired) continue;
        block_current(TaskState::kBlocked);
        return;
      }
      case ActionKind::kSleep: {
        t.has_op = false;
        Task* tp = &t;
        t.sleep_timer = kernel_.engine().schedule(
            a.dur, [this, tp]() { kernel_.wake_task(*tp); });
        block_current(TaskState::kSleeping);
        return;
      }
      case ActionKind::kFinish: {
        t.has_op = false;
        finish_current();
        return;
      }
    }
  }
  assert(false && "behavior produced too many zero-time actions in a row");
}

bool GuestCpu::maybe_resched() {
  if (!need_resched_ || current_ == nullptr) {
    need_resched_ = false;
    resched_forced_ = false;
    return false;
  }
  need_resched_ = false;
  const bool force = resched_forced_;
  resched_forced_ = false;
  Task* cand = rq_.leftmost();
  if (cand == nullptr) return false;
  Task& cur = *current_;
  if (!force) {
    const bool beats = cand->vruntime + kWakeupGranularity < cur.vruntime;
    if (!beats) return false;
  }
  stop_exec();
  if (cur.spin_waiting != nullptr) kernel_.signal_spin(idx_, false);
  cur.set_state(TaskState::kReady);
  rq_.enqueue(cur);
  current_ = nullptr;
  install(rq_.pop_leftmost(), /*resume=*/true);
  return true;
}

void GuestCpu::request_resched(bool force) {
  need_resched_ = true;
  resched_forced_ |= force;
  if (vcpu_running_ && !resched_evt_.pending()) {
    resched_evt_ = kernel_.engine().schedule(
        0,
        [this]() {
          if (vcpu_running_) maybe_resched();
        });
  }
}

// ---------------------------------------------------------------------------
// Task transitions
// ---------------------------------------------------------------------------

void GuestCpu::enter_spin(sync::SpinWaitable& w) {
  Task& t = *current_;
  t.set_state(TaskState::kSpinning);
  t.spin_waiting = &w;
  exec_start_ = kernel_.engine().now();
  exec_active_ = true;
  kernel_.signal_spin(idx_, true);
}

void GuestCpu::spin_acquired(Task& t) {
  assert(current_ == &t);
  stop_exec();
  kernel_.signal_spin(idx_, false);
  t.spin_waiting = nullptr;
  t.has_op = false;
  t.set_state(TaskState::kRunning);
  if (vcpu_running_) interpret();
}

void GuestCpu::block_current(TaskState st) {
  assert(current_ != nullptr && !exec_active_);
  Task& t = *current_;
  t.set_state(st);
  // Note: the IRS "migrating" tag deliberately survives blocking — it is
  // retired only when the load balancer moves the task back (paper §3.3)
  // or after tag_ttl of CPU time.
  current_ = nullptr;
  update_lock_hint();
  pick_next_or_idle();
}

void GuestCpu::finish_current() {
  assert(current_ != nullptr);
  Task& t = *current_;
  t.set_state(TaskState::kFinished);
  t.stats.finished_at = kernel_.engine().now();
  current_ = nullptr;
  update_lock_hint();
  kernel_.notify_task_finished(t);
  pick_next_or_idle();
}

void GuestCpu::trace_lane(std::int32_t task_id, const char* note) {
  if (task_id == lane_task_) return;
  lane_task_ = task_id;
  kernel_.trace().record(kernel_.engine().now(), sim::TraceKind::kGuestSwitch,
                         kernel_.trace_gcpu(idx_), task_id, note);
}

void GuestCpu::install(Task* next, bool resume) {
  assert(next != nullptr && current_ == nullptr);
  current_ = next;
  trace_lane(next->id());
  update_lock_hint();
  next->set_cpu(idx_);
  next->set_state(next->spin_waiting != nullptr ? TaskState::kSpinning
                                                : TaskState::kRunning);
  next->slice_used = 0;
  pending_overhead_ += kCtxSwitchCost;
  ++kernel_.stats().guest_ctx_switches;
  if (resume) resume_current();
}

void GuestCpu::pick_next_or_idle() {
  assert(current_ == nullptr);
  Task* next = rq_.pop_leftmost();
  if (next == nullptr && vcpu_running_) {
    // new-idle (pull) balancing before committing to idle.
    if (kernel_.balancer().newidle(*this)) next = rq_.pop_leftmost();
  }
  if (next != nullptr) {
    install(next, /*resume=*/true);
    return;
  }
  trace_lane(-1);
  // The migrator kernel thread has queued work and needs a live vCPU:
  // idle here (without blocking) until it drains — it may well enqueue
  // the migrated task right onto this CPU.
  if (vcpu_running_ && kernel_.migrator().backlog() > 0) {
    if (!resched_evt_.pending()) {
      resched_evt_ = kernel_.engine().schedule(
          2 * kMigratorCost,
          [this]() {
            if (vcpu_running_ && current_ == nullptr) pick_next_or_idle();
          });
    }
    return;
  }
  // Guest idle: give the pCPU back (SCHEDOP_block). The idle housekeeping
  // timer is armed by on_vcpu_stop when the block lands.
  if (vcpu_running_) kernel_.hypercalls().sched_block(idx_);
}

void GuestCpu::enqueue_ready(Task& t, bool wake_preempt,
                             bool normalize_vruntime) {
  t.set_state(TaskState::kReady);
  t.set_cpu(idx_);
  // Wake-up vruntime normalisation: sleepers re-enter slightly behind the
  // queue head so they get scheduled soon but cannot monopolise.
  if (normalize_vruntime) {
    t.vruntime = std::max(t.vruntime, rq_.min_vruntime() - kSchedLatency);
  }
  rq_.enqueue(t);
  if (current_ == nullptr) {
    if (vcpu_running_) {
      if (!resched_evt_.pending()) {
        resched_evt_ = kernel_.engine().schedule(
            0,
            [this]() {
              if (vcpu_running_ && current_ == nullptr && !rq_.empty()) {
                pick_next_or_idle();
              }
            });
      }
    } else {
      kernel_.kick_if_blocked(idx_);
    }
    return;
  }
  if (!wake_preempt) return;
  const bool tag_preempt = kernel_.wakeup_fix() && current_->migrating_tag;
  if (tag_preempt) ++kernel_.stats().tag_preemptions;
  const bool beats = t.vruntime + kWakeupGranularity < current_->vruntime;
  if (tag_preempt || beats) request_resched(tag_preempt);
}

// ---------------------------------------------------------------------------
// vCPU lifecycle
// ---------------------------------------------------------------------------

void GuestCpu::on_vcpu_start() {
  vcpu_running_ = true;
  idle_poll_.cancel();
  arm_tick();
  run_stop_requests();
  kernel_.migrator().pump();
  if (!vcpu_running_) return;  // a stop request emptied and blocked us
  if (current_ != nullptr) {
    resume_current();
  } else {
    // Covers both queued work and the housekeeping wake: try a new-idle
    // pull before giving the pCPU back.
    pick_next_or_idle();
  }
}

void GuestCpu::on_vcpu_stop(hv::StopReason reason) {
  stop_exec();
  vcpu_running_ = false;
  tick_timer_.cancel();
  sa_bh_timer_.cancel();
  resched_evt_.cancel();
  op_done_.cancel();
  if (current_ != nullptr && current_->spin_waiting != nullptr) {
    kernel_.signal_spin(idx_, false);
  }
  // Idle housekeeping: a blocked idle vCPU periodically wakes to run a
  // new-idle balance (residual timers/RCU keep real idle CPUs ticking).
  if (reason == hv::StopReason::kBlocked && guest_idle()) {
    arm_idle_housekeeping();
  }
}

void GuestCpu::arm_idle_housekeeping() {
  const sim::Duration poll = kernel_.config().idle_poll_period;
  if (poll <= 0) return;
  // Armed only while disarmed (boot, or a block after on_vcpu_start's
  // cancel), so re-arming never drops a pending wake.
  assert(!idle_poll_.pending());
  idle_poll_.arm(poll);
}

// ---------------------------------------------------------------------------
// Timer tick
// ---------------------------------------------------------------------------

void GuestCpu::arm_tick() { tick_timer_.arm(kTickPeriod); }

void GuestCpu::on_tick() {
  if (!vcpu_running_) return;
  softirq_.raise(SoftirqNr::kTimer);
  softirq_.run_pending(SoftirqNr::kTimer);
  if (vcpu_running_) arm_tick();
}

void GuestCpu::timer_softirq() {
  const sim::Time now = kernel_.engine().now();
  steal_.update(kernel_.hypercalls().vcpu_runstate(idx_), now);
  if (current_ != nullptr) {
    stop_exec();
    Task* cand = rq_.leftmost();
    if (cand != nullptr && current_->slice_used >= cfs_slice() &&
        cand->vruntime < current_->vruntime) {
      Task& cur = *current_;
      if (cur.spin_waiting != nullptr) kernel_.signal_spin(idx_, false);
      cur.set_state(TaskState::kReady);
      rq_.enqueue(cur);
      current_ = nullptr;
      install(rq_.pop_leftmost(), /*resume=*/true);
    } else {
      resume_current();
    }
  }
  if (now >= next_balance_) {
    next_balance_ = now + kBalanceInterval;
    kernel_.balancer().periodic(*this);
  }
}

// ---------------------------------------------------------------------------
// Stop-based migration (Fig. 1b)
// ---------------------------------------------------------------------------

void GuestCpu::request_stop_migration(Task& victim, int dst,
                                      std::function<void(sim::Duration)> done) {
  stop_reqs_.push_back(
      StopRequest{&victim, dst, kernel_.engine().now(), std::move(done)});
  if (vcpu_running_) {
    kernel_.engine().schedule(
        0,
        [this]() {
          if (vcpu_running_) run_stop_requests();
        });
  }
  // Otherwise the request executes when the vCPU next gets a pCPU — the
  // very delay Fig. 1b measures.
}

Task* GuestCpu::yank_current_if_preempted() {
  if (vcpu_running_ || current_ == nullptr) return nullptr;
  assert(!exec_active_);  // the vCPU stop folded the execution clock
  Task* t = current_;
  current_ = nullptr;
  trace_lane(-1, "pull");
  t->set_state(TaskState::kReady);
  return t;
}

void GuestCpu::run_stop_requests() {
  if (stop_reqs_.empty()) return;
  std::vector<StopRequest> reqs;
  reqs.swap(stop_reqs_);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!vcpu_running_) {
      // pick_next_or_idle blocked the vCPU mid-batch; keep the rest queued.
      stop_reqs_.insert(stop_reqs_.end(),
                        std::make_move_iterator(reqs.begin() + static_cast<std::ptrdiff_t>(i)),
                        std::make_move_iterator(reqs.end()));
      return;
    }
    StopRequest& r = reqs[i];
    Task& t = *r.victim;
    const bool is_current = current_ == &t;
    const bool is_queued = !is_current && t.cpu() == idx_ &&
                           t.state() == TaskState::kReady;
    if (is_current) {
      stop_exec();
      if (t.spin_waiting != nullptr) kernel_.signal_spin(idx_, false);
      current_ = nullptr;
      t.set_state(TaskState::kReady);
    } else if (is_queued) {
      rq_.remove(t);
    }
    if (is_current || is_queued) {
      kernel_.note_migration(t, idx_, r.dst, &GuestStats::stop_migrations);
      kernel_.migrate_enqueue(t, idx_, r.dst, true);
    }
    if (r.done) r.done(kernel_.engine().now() - r.requested_at);
    if (current_ == nullptr) pick_next_or_idle();
  }
}

}  // namespace irs::guest
