// VMware-style relaxed co-scheduling, as re-implemented for Xen in the
// paper's evaluation (§5.1).
//
// Every accounting period the monitor measures per-vCPU progress for each
// SMP VM. Progress is time spent running *or idle-blocked* — the paper
// points out this is exactly the flaw that makes relaxed-co ineffective for
// blocking workloads (deceptive idleness counts as progress). When the skew
// between the most- and least-progressed sibling exceeds a threshold, the
// leading vCPU is stopped for one period and the most-lagging runnable
// sibling is boosted into its slot.
#pragma once

#include <vector>

#include "src/hv/credit_scheduler.h"
#include "src/hv/types.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace irs::hv {

/// Skew threshold beyond which the leading vCPU is stopped.
inline constexpr sim::Duration kCoSkewThreshold = sim::milliseconds(15);
/// How long a leading vCPU stays stopped — long enough for the boosted
/// laggard to close the skew, well short of a full accounting period
/// (ESX re-evaluates continuously rather than stopping for whole
/// periods).
inline constexpr sim::Duration kCoStopDuration = sim::milliseconds(8);

class RelaxedCoMonitor {
 public:
  RelaxedCoMonitor(sim::Engine& eng, CreditScheduler& sched,
                   std::vector<Pcpu>& pcpus, std::vector<Vm*>& vms,
                   StrategyStats& stats, sim::Trace& trace);

  /// Arm the periodic skew check. Call once.
  void start();

 private:
  void on_period();
  void check_vm(Vm& vm);

  sim::Engine& eng_;
  CreditScheduler& sched_;
  std::vector<Pcpu>& pcpus_;
  std::vector<Vm*>& vms_;
  StrategyStats& stats_;
  sim::Trace& trace_;

  // progress_[vcpu global id] = cumulative run+blocked time at last period.
  std::vector<sim::Duration> last_snapshot_;
  std::vector<sim::Duration> progress_;
};

}  // namespace irs::hv
