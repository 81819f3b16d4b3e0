// Xen credit1-style scheduler.
//
// Implements the behaviours the paper's analysis depends on:
//  * 30 ms time slices with FIFO rotation inside a priority class,
//  * per-tick credit burn and periodic weight-proportional accounting,
//  * BOOST on wake-up from blocked (latency-sensitive vCPUs preempt),
//  * idle-time work stealing and utilisation-driven wake placement
//    (the source of the CPU-stacking problem, §5.6),
//  * a pre-preemption hook through which the IRS scheduler-activation
//    sender delays involuntary preemptions (§3.1).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/hv/pcpu.h"
#include "src/hv/types.h"
#include "src/hv/vcpu.h"
#include "src/hv/vm.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace irs::hv {

/// credit1's parameters (Xen 4.5), which the paper runs unchanged; the
/// accounting period is kAccountingPeriod in types.h.
inline constexpr sim::Duration kTimeSlice = sim::milliseconds(30);
inline constexpr sim::Duration kTickPeriod = sim::milliseconds(10);
/// Credits debited from the running vCPU per tick (credit1 uses 100).
inline constexpr std::int32_t kCreditsPerTick = 100;
/// Credit clamp (credit1 caps at one accounting period's worth per pCPU).
inline constexpr std::int32_t kCreditCap = 300;
/// Cost of a hypervisor-level vCPU context switch (world switch).
inline constexpr sim::Duration kVcpuSwitchCost = sim::microseconds(3);
/// Whether idle pCPUs steal runnable vCPUs from busy peers (credit1 does).
inline constexpr bool kWorkStealing = true;

/// Installed by the IRS SA sender. Called when the scheduler is about to
/// involuntarily preempt `cur`; returning true defers the preemption (the
/// hook is then responsible for eventually completing it via the guest's
/// yield/block acknowledgement or the hard-cap timer).
class PreemptHook {
 public:
  virtual ~PreemptHook() = default;
  virtual bool delay_preemption(Vcpu& cur) = 0;
  /// Called when a pending SA is acknowledged by the guest's yield/block.
  virtual void note_ack(Vcpu& cur) = 0;
};

/// Scheduler event counters, bumped by CreditScheduler and read through
/// Host::sched_stats(). LHP and LWP are also counted on the preempted
/// vCPU (Vcpu::lhp, Vcpu::lwp) for per-VM charge-back.
struct SchedStats {
  std::uint64_t context_switches = 0;
  std::uint64_t preemptions = 0;  // involuntary deschedules
  std::uint64_t lhp_events = 0;   // preempted while current task held a lock
  std::uint64_t lwp_events = 0;   // preempted while current task waited
};

/// Counters for the optional strategy components, owned by Host and bumped
/// by the component that sees the event. SAs sent are also counted on the
/// vCPU they went to (Vcpu::sa_sent) for the sampler's per-vCPU tracks.
struct StrategyStats {
  std::uint64_t sa_sent = 0;     // SA notifications delivered
  std::uint64_t sa_acked = 0;    // guest acknowledged in time
  std::uint64_t sa_forced = 0;   // hard cap expired, forced preemption
  sim::Duration sa_delay_total = 0;  // cumulative preemption delay
  std::uint64_t ple_exits = 0;
  std::uint64_t co_stops = 0;
  std::uint64_t delay_grants = 0;    // delay-preemption windows opened
  std::uint64_t delay_released = 0;  // lock released inside the window
  std::uint64_t delay_expired = 0;   // window hit the hard cap
};

class CreditScheduler {
 public:
  CreditScheduler(sim::Engine& eng, std::vector<Pcpu>& pcpus,
                  std::vector<Vm*>& vms, sim::Trace& trace);

  /// Arm the periodic tick and accounting timers. Call once.
  void start();

  /// A blocked vCPU becomes runnable (event-channel kick, task enqueue).
  void wake(Vcpu& v);

  /// SCHEDOP_block from the running vCPU: guest has nothing to run.
  void block(Vcpu& v);

  /// SCHEDOP_yield from the running vCPU.
  void yield(Vcpu& v);

  /// Force an involuntary preemption right now, bypassing the preempt hook
  /// (used by the SA hard-cap timer, PLE exits, and relaxed-co stops).
  void force_preempt(Vcpu& v);

  /// Coalesced request to run the scheduler on a pCPU "soon" (this instant,
  /// after currently queued events).
  void request_resched(Pcpu& p);

  /// Install the IRS pre-preemption hook (nullptr to remove).
  void set_preempt_hook(PreemptHook* hook) { hook_ = hook; }

  [[nodiscard]] const SchedStats& stats() const { return stats_; }

  /// Re-sort all runqueues after a global priority refresh.
  void rebuild_queues();

  /// Deterministic wake placement: last-used pCPU if idle, else any idle
  /// allowed pCPU, else the least-loaded allowed pCPU (lowest id wins ties).
  [[nodiscard]] PcpuId cpu_pick(const Vcpu& v) const;

 private:
  void do_schedule(Pcpu& p);
  void on_tick(Pcpu& p);
  void on_accounting();
  /// Move `cur` off `p` into the runnable queue (involuntary).
  void deschedule_current(Pcpu& p, StopReason reason);
  /// Install `next` (may be nullptr -> idle) on `p` and start its slice.
  /// Its one kHvSchedule record is noted "steal" when `stolen`.
  void switch_to(Pcpu& p, Vcpu* next, bool stolen);
  /// Try to steal a runnable vCPU for idle pCPU `p` from its peers, taking
  /// it off its old queue.
  Vcpu* steal_for(Pcpu& p);
  /// Notify the guest that its vCPU stopped, with LHP/LWP classification.
  void notify_stopped(Vcpu& v, StopReason reason);
  /// `p`'s slice-expiry timer.
  sim::Timer& slice_timer(const Pcpu& p) {
    return slice_timers_[static_cast<std::size_t>(p.id())];
  }

  static bool prio_better(const Vcpu& a, const Vcpu& b) {
    return static_cast<int>(a.prio()) < static_cast<int>(b.prio());
  }
  static bool prio_not_worse(const Vcpu& a, const Vcpu& b) {
    return static_cast<int>(a.prio()) <= static_cast<int>(b.prio());
  }

  sim::Engine& eng_;
  std::vector<Pcpu>& pcpus_;
  std::vector<Vm*>& vms_;
  sim::Trace& trace_;
  SchedStats stats_;
  PreemptHook* hook_ = nullptr;
  /// One slice-expiry timer per pCPU, re-armed on every switch — Xen's
  /// per-pCPU s_timer. Indexed by PcpuId; a deque because a Timer cannot
  /// move.
  std::deque<sim::Timer> slice_timers_;
  /// Scratch reused by every call, so neither allocates once warm:
  /// cpu_pick's per-pCPU load scores and rebuild_queues' old queue order.
  mutable std::vector<double> score_;
  std::vector<Vcpu*> requeue_;
};

}  // namespace irs::hv
