// Hypervisor-side virtual CPU.
#pragma once

#include <cstdint>
#include <vector>

#include "src/hv/hypercalls.h"
#include "src/hv/types.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace irs::hv {

class Vm;

/// A virtual CPU as the hypervisor sees it: a schedulable entity with a
/// runstate, credit-scheduler bookkeeping, and per-state time accounting.
class Vcpu {
 public:
  Vcpu(VcpuId id, Vm* vm, int idx_in_vm);

  [[nodiscard]] VcpuId id() const { return id_; }
  [[nodiscard]] Vm& vm() const { return *vm_; }
  /// Index of this vCPU within its VM (0..n-1).
  [[nodiscard]] int idx() const { return idx_; }

  [[nodiscard]] VcpuState state() const { return state_; }
  /// Transition runstate, folding elapsed time into the old state's bucket.
  void set_state(VcpuState s, sim::Time now);

  /// pCPU currently executing this vCPU (kNoPcpu unless running).
  [[nodiscard]] PcpuId pcpu() const { return pcpu_; }
  void set_pcpu(PcpuId p) { pcpu_ = p; }

  /// Home runqueue: the pCPU whose queue holds this vCPU when runnable.
  [[nodiscard]] PcpuId resident() const { return resident_; }
  void set_resident(PcpuId p) { resident_ = p; }

  /// Hard affinity. Empty means "any pCPU".
  [[nodiscard]] const std::vector<PcpuId>& affinity() const { return affinity_; }
  void set_affinity(std::vector<PcpuId> mask) { affinity_ = std::move(mask); }
  [[nodiscard]] bool allowed_on(PcpuId p) const;

  // --- credit scheduler bookkeeping ---
  [[nodiscard]] CreditPrio prio() const { return prio_; }
  void set_prio(CreditPrio p) { prio_ = p; }
  [[nodiscard]] std::int32_t credits() const { return credits_; }
  void add_credits(std::int32_t c, std::int32_t cap);
  /// Recompute UNDER/OVER from the credit balance (clears BOOST).
  void refresh_prio();

  sim::Time slice_start = 0;  // when the current slice began

  // --- scheduler-activation state (IRS, paper Algorithm 1) ---
  [[nodiscard]] bool sa_pending() const { return sa_pending_; }
  void set_sa_pending(bool p) { sa_pending_ = p; }
  /// Timestamp of the outstanding SA notification (for delay accounting).
  sim::Time sa_sent_at = 0;
  /// Cancellable timer enforcing the SA acknowledgement hard cap.
  sim::EventHandle sa_cap_timer;

  // --- per-vCPU event counts, bumped beside the host totals in
  // SchedStats / StrategyStats. The cluster collector charges LHP and LWP
  // to the VM that owns the vCPU; the sampler plots SAs per vCPU.
  std::uint64_t lhp = 0;      // preempted holding a lock
  std::uint64_t lwp = 0;      // preempted waiting for a lock
  std::uint64_t sa_sent = 0;  // SA notifications delivered

  // --- spin tracking (for PLE) ---
  [[nodiscard]] bool spinning() const { return spinning_; }
  void set_spinning(bool s) { spinning_ = s; }
  /// The PLE window-boundary poll, while one is queued.
  sim::EventHandle ple_timer;
  /// Dormant PLE watch: the spin window keeps counting from `ple_anchor`
  /// (a boundary) with no poll queued, because nobody waits on the pCPU.
  bool ple_dormant = false;
  sim::Time ple_anchor = 0;

  // --- relaxed co-scheduling ---
  bool co_stopped = false;

  /// Guest paravirtual hint: the current task holds a lock (used by the
  /// delay-preemption baseline).
  bool lock_hint = false;

  /// Cancellable deferred call that delivers GuestOs::vcpu_started after the
  /// world-switch cost has elapsed.
  sim::EventHandle start_notice;
  /// True once vcpu_started was delivered for the current placement (the
  /// matching vcpu_stopped is only sent when this is set).
  bool guest_active = false;

  /// Time-decayed fraction of recent wall time spent Running — the
  /// "computational load" signal utilisation-driven placement uses. A
  /// blocking-sync vCPU reads low here even though it stalls whenever
  /// descheduled: deceptive idleness (paper §5.6).
  [[nodiscard]] double load_avg(sim::Time now) const;

  // --- runstate accounting ---
  [[nodiscard]] RunstateInfo runstate(sim::Time now) const;
  [[nodiscard]] sim::Duration time_running(sim::Time now) const;
  [[nodiscard]] sim::Duration time_runnable(sim::Time now) const;
  [[nodiscard]] sim::Duration time_blocked(sim::Time now) const;

 private:
  VcpuId id_;
  Vm* vm_;
  int idx_;
  VcpuState state_ = VcpuState::kBlocked;
  PcpuId pcpu_ = kNoPcpu;
  PcpuId resident_ = kNoPcpu;
  std::vector<PcpuId> affinity_;

  CreditPrio prio_ = CreditPrio::kUnder;
  std::int32_t credits_ = 0;

  bool sa_pending_ = false;
  bool spinning_ = false;

  sim::Time state_since_ = 0;
  sim::Duration acc_[3] = {0, 0, 0};  // indexed by VcpuState
  mutable double load_avg_ = 0.0;     // decayed running fraction
  mutable sim::Time load_sampled_ = 0;
};

}  // namespace irs::hv
