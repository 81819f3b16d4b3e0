// The physical host: pCPUs, VMs, the credit scheduler, and the optional
// strategy components (IRS SA sender, PLE, relaxed co-scheduling).
#pragma once

#include <memory>
#include <vector>

#include "src/hv/credit_scheduler.h"
#include "src/hv/hypercalls.h"
#include "src/hv/pcpu.h"
#include "src/hv/types.h"
#include "src/hv/vcpu.h"
#include "src/hv/vm.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace irs::hv {

class SaSender;
class PleMonitor;
class RelaxedCoMonitor;
class DelayPreemptHook;

class Host {
 public:
  /// Throws std::invalid_argument when `n_pcpus` < 1 or `cfg.sa_ack_cap` is
  /// not positive.
  Host(sim::Engine& eng, HvConfig cfg, int n_pcpus);
  ~Host();
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Create a VM and its vCPUs (pinned per cfg.pin_map if given). Throws
  /// std::invalid_argument when `cfg.n_vcpus` or `cfg.weight` is below 1
  /// or a pin is out of range.
  Vm& add_vm(const VmConfig& cfg);

  /// Arm periodic timers. Call once after all VMs are added.
  void start();

  // --- strategy installation (call before start()) ---
  void enable_irs();            // SA sender half of IRS
  void enable_ple();            // pause-loop-exiting emulation
  void enable_relaxed_co();     // VMware-style relaxed co-scheduling
  void enable_delay_preempt();  // Uhlig-style lock-holder delay baseline

  // --- accessors ---
  [[nodiscard]] sim::Engine& engine() { return eng_; }
  [[nodiscard]] int n_pcpus() const { return static_cast<int>(pcpus_.size()); }
  [[nodiscard]] Pcpu& pcpu(PcpuId id) { return pcpus_.at(id); }
  [[nodiscard]] int n_vms() const { return static_cast<int>(vms_.size()); }
  [[nodiscard]] Vm& vm(VmId id) { return *vms_.at(id); }
  [[nodiscard]] Vcpu& vcpu(VcpuId id) { return *vcpus_.at(id); }
  [[nodiscard]] int n_vcpus() const { return static_cast<int>(vcpus_.size()); }
  /// vCPUs currently runnable-but-not-running (sampler gauge).
  [[nodiscard]] int runnable_vcpus() const;
  /// Cumulative runnable-wait (steal) time across all vCPUs up to `now`
  /// (sampler rate source).
  [[nodiscard]] sim::Duration total_steal(sim::Time now) const;
  [[nodiscard]] CreditScheduler& sched() { return *sched_; }
  [[nodiscard]] const SchedStats& sched_stats() const { return sched_->stats(); }
  [[nodiscard]] const StrategyStats& strategy_stats() const { return sstats_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }

  /// Per-VM hypercall surface handed to guest kernels.
  [[nodiscard]] Hypercalls& hypercalls(Vm& vm);

  /// Guest-side spin signal (models the PAUSE loops PLE hardware observes).
  /// Safe to call regardless of whether PLE is enabled.
  void note_spinning(Vm& vm, int vcpu_idx, bool spinning);

  /// Guest paravirtual lock hint (consumed by the delay-preemption
  /// baseline; a no-op otherwise).
  void note_lock_hint(Vm& vm, int vcpu_idx, bool holds_lock);

 private:
  class VmHypercalls;

  sim::Engine& eng_;
  HvConfig cfg_;
  StrategyStats sstats_;
  sim::Trace trace_;
  std::vector<Pcpu> pcpus_;
  std::vector<std::unique_ptr<Vm>> vm_storage_;
  std::vector<Vm*> vms_;
  std::vector<std::unique_ptr<Vcpu>> vcpus_;
  std::vector<std::unique_ptr<VmHypercalls>> hypercalls_;
  std::unique_ptr<CreditScheduler> sched_;
  std::unique_ptr<SaSender> sa_sender_;
  std::unique_ptr<DelayPreemptHook> delay_;
  std::unique_ptr<PleMonitor> ple_;
  std::unique_ptr<RelaxedCoMonitor> relaxed_co_;
};

}  // namespace irs::hv
