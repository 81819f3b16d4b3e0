// Per-vCPU guest scheduling context: the CFS runqueue, the current task,
// the action interpreter that advances tasks through their behaviours, the
// guest timer tick, and the IRS context switcher (softirq bottom half).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/guest/cfs_runqueue.h"
#include "src/guest/softirq.h"
#include "src/guest/steal_clock.h"
#include "src/guest/task.h"
#include "src/guest/types.h"
#include "src/hv/types.h"
#include "src/sim/engine.h"

namespace irs::guest {

class GuestKernel;

/// Linux 3.18 CFS, as the paper's guests ran it (CONFIG_HZ=250).
inline constexpr sim::Duration kTickPeriod = sim::milliseconds(4);
inline constexpr sim::Duration kSchedLatency = sim::milliseconds(6);
inline constexpr sim::Duration kMinGranularity = sim::microseconds(750);
inline constexpr sim::Duration kWakeupGranularity = sim::microseconds(1000);
inline constexpr sim::Duration kCtxSwitchCost = sim::microseconds(2);
/// Period of the per-CPU periodic (push) load balancer.
inline constexpr sim::Duration kBalanceInterval = sim::milliseconds(16);
/// vIRQ handler + context switch cost charged while acknowledging an SA
/// (paper §3.1 measures 20–26 us end to end; jittered at runtime).
inline constexpr sim::Duration kSaHandlerCost = sim::microseconds(20);
/// A task stays "migrating"-tagged until the load balancer moves it back
/// or it blocks; this cap on tagged CPU time is only a safety valve.
inline constexpr sim::Duration kTagTtl = sim::milliseconds(100);

/// Pending Fig-1b-style stop migration: move `victim` to `dst` once this
/// CPU actually executes (requires the backing vCPU to hold a pCPU —
/// which is exactly why migration latency explodes under contention).
struct StopRequest {
  Task* victim = nullptr;
  int dst = kNoCpu;
  sim::Time requested_at = 0;
  std::function<void(sim::Duration)> done;
};

class GuestCpu {
 public:
  GuestCpu(GuestKernel& kernel, int idx);
  GuestCpu(const GuestCpu&) = delete;
  GuestCpu& operator=(const GuestCpu&) = delete;
  GuestCpu(GuestCpu&&) = delete;

  [[nodiscard]] int idx() const { return idx_; }
  [[nodiscard]] Task* current() const { return current_; }
  [[nodiscard]] CfsRunqueue& rq() { return rq_; }
  [[nodiscard]] const CfsRunqueue& rq() const { return rq_; }

  /// Guest-visible idleness: no current task and empty runqueue. Note a
  /// *preempted* vCPU with an empty queue also reads as idle — the guest
  /// cannot tell (semantic gap exploited in Fig. 4).
  [[nodiscard]] bool guest_idle() const {
    return current_ == nullptr && rq_.empty();
  }

  /// The backing vCPU currently holds a pCPU and guest code can run.
  [[nodiscard]] bool vcpu_running() const { return vcpu_running_; }

  /// Guest-visible runnable load: ready tasks plus the current one.
  [[nodiscard]] std::size_t nr_running() const {
    return rq_.nr_ready() + (current_ != nullptr ? 1 : 0);
  }

  /// rt_avg-style score: runnable load plus hypervisor contention. Used by
  /// the IRS migrator and the load balancer (paper §3.3).
  [[nodiscard]] double load_score() const;
  [[nodiscard]] double steal_frac() const { return steal_.steal_frac(); }

  // --- hypervisor upcalls (fanned out by GuestKernel) ---
  void on_vcpu_start();
  void on_vcpu_stop(hv::StopReason reason);
  void on_sa_upcall();  // VIRQ_SA_UPCALL handler (SA receiver top half)

  // --- task lifecycle ---
  /// Add a ready task to this CPU's queue and kick / preempt as
  /// appropriate. `wake_preempt` enables the wake-up preemption check
  /// against the current task. `normalize_vruntime` applies the sleeper
  /// wake-up rule (vruntime floored near min_vruntime); migrations must
  /// pass false and pre-adjust vruntime relative to the two queues instead
  /// (GuestKernel::migrate_enqueue), or the task would be pushed to the
  /// back of the new queue forever.
  void enqueue_ready(Task& t, bool wake_preempt,
                     bool normalize_vruntime = true);

  /// A spin lock/barrier granted the current (spinning) task; resume it.
  void spin_acquired(Task& t);

  // --- stop-based migration (Fig. 1b measurement) ---
  void request_stop_migration(Task& victim, int dst,
                              std::function<void(sim::Duration)> done);

  /// Arm the idle housekeeping timer (used at boot for CPUs that start
  /// with nothing to run; otherwise armed automatically when idling).
  void arm_idle_housekeeping();

  /// IRS pull extension (paper §6): detach and return the current task if
  /// this CPU's vCPU is hypervisor-preempted; nullptr otherwise. The
  /// caller re-enqueues the task elsewhere.
  Task* yank_current_if_preempted();

  [[nodiscard]] Softirq& softirq() { return softirq_; }

 private:
  friend class GuestKernel;

  // Execution clock: exec_start_ up to stop_exec() brackets an interval
  // where the current task genuinely consumes CPU (compute or spin).
  void stop_exec();
  void resume_current();
  void on_op_complete();

  /// Drive the current task's behaviour until it computes, blocks, spins,
  /// finishes, or is preempted.
  void interpret();

  /// Returns true if a pending resched switched tasks (caller must stop).
  bool maybe_resched();
  /// Wake-up preemption: reschedule at the next zero-delay event. `force`
  /// (the Fig. 4 tag preemption) switches to the leftmost task even if it
  /// does not beat the current one by the wake-up granularity.
  void request_resched(bool force);

  void enter_spin(sync::SpinWaitable& w);
  void block_current(TaskState st);
  void finish_current();
  /// Make `next` current (must already be off the runqueue).
  void install(Task* next, bool resume);
  /// current_ == nullptr: pick from the queue or go idle (SCHEDOP_block).
  void pick_next_or_idle();

  /// Emit a kGuestSwitch lane record when the on-CPU task changes. `a` is
  /// the global vCPU id, `b` the incoming task (-1 = idle); a span in the
  /// guest timeline runs from one lane record to the next on the same vCPU.
  /// Dedups: re-picking the same task (or re-confirming idle) is silent.
  void trace_lane(std::int32_t task_id, const char* note = "");

  void on_tick();           // timer IRQ: raises TIMER softirq
  void timer_softirq();     // tick bottom half: clocks, preemption, balance
  void upcall_softirq();    // IRS context switcher (paper §3.2)
  void arm_tick();

  void run_stop_requests();

  /// Per-task CFS slice given current queue depth.
  [[nodiscard]] sim::Duration cfs_slice() const;

  /// Send the paravirtual lock hint if it changed (delay-preempt baseline).
  void update_lock_hint();

  GuestKernel& kernel_;
  int idx_;
  CfsRunqueue rq_;
  Task* current_ = nullptr;
  std::int32_t lane_task_ = -1;  // last task id traced on this lane

  bool vcpu_running_ = false;
  bool exec_active_ = false;
  sim::Time exec_start_ = 0;
  sim::Duration pending_overhead_ = 0;  // context-switch cost to charge

  bool need_resched_ = false;
  bool resched_forced_ = false;  // IRS tagged-task preemption bypasses the
                                 // vruntime check
  bool lock_hint_ = false;       // last paravirtual lock hint sent

  sim::EventHandle op_done_;
  sim::Timer tick_timer_;          // re-armed on every vCPU start
  sim::EventHandle sa_bh_timer_;   // delayed UPCALL softirq processing
  sim::EventHandle resched_evt_;
  sim::Timer idle_poll_;           // housekeeping wake for blocked vCPUs

  sim::Time next_balance_ = 0;

  Softirq softirq_;
  StealClock steal_;

  std::vector<StopRequest> stop_reqs_;
};

}  // namespace irs::guest
