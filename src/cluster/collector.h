// The per-host sampling daemon of a cluster::Cluster — the "collector"
// half of the collector→scheduler split. On a fixed cadence it walks the
// host's VMs and snapshots, per VM, the window deltas of: CPU time run,
// steal (runnable-wait) time, and the LHP/LWP charge-back counts the
// credit scheduler keeps on each vCPU (hv::Vcpu::lhp, lwp). The central
// cluster::Scheduler reads the latest window when it decides; the host's
// ClusterHostLedger accumulates the same deltas for the run result.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/host_node.h"
#include "src/obs/cluster_stats.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace irs::cluster {

/// Sampling cadence (per host).
inline constexpr sim::Duration kCollectPeriod = sim::milliseconds(10);

class Collector {
 public:
  /// One VM's activity inside the latest completed sample window.
  struct VmSample {
    sim::Duration run_delta = 0;    // CPU time executed
    sim::Duration steal_delta = 0;  // runnable-but-not-running time
    std::int64_t lhp_delta = 0;     // lock-holder preemptions charged
    std::int64_t lwp_delta = 0;     // lock-waiter preemptions charged
  };

  /// `ledger` (owned by the cluster's ClusterResult) accumulates window
  /// deltas host-wide; must outlive the collector.
  Collector(sim::Engine& eng, core::HostNode& node,
            obs::ClusterHostLedger* ledger);

  /// Arm the periodic sampling event. Call once, after node.start().
  void start();

  /// Latest completed window for a host-local VM (zeroes before the first
  /// window closes or for VMs added after construction).
  [[nodiscard]] const VmSample& sample(hv::VmId vm) const;

  /// Host-wide run delta of the latest window (the scheduler's load signal
  /// for destination choice).
  [[nodiscard]] sim::Duration host_run_delta() const;

 private:
  struct Totals {
    sim::Duration run = 0;
    sim::Duration steal = 0;
    std::int64_t lhp = 0;
    std::int64_t lwp = 0;
  };

  void collect();
  [[nodiscard]] Totals totals(int vm_i) const;

  sim::Engine& eng_;
  core::HostNode& node_;
  obs::ClusterHostLedger* ledger_;
  std::vector<Totals> prev_;
  std::vector<VmSample> latest_;
  VmSample zero_{};
};

}  // namespace irs::cluster
