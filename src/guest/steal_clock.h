// Paravirtual steal clock: the guest-visible estimate of how contended its
// vCPU's pCPU is.
//
// Linux feeds steal time into rt_avg so load balancing can account for
// hypervisor-level contention (paper §3.3). We keep, per guest CPU, an EWMA
// of the fraction of wall time the vCPU spent runnable-but-not-running,
// updated from the hypervisor's runstate counters at every guest tick —
// which also means the estimate goes stale while the vCPU is preempted,
// exactly the inaccuracy the paper's §6 mentions.
#pragma once

#include "src/hv/hypercalls.h"
#include "src/sim/time.h"

namespace irs::guest {

/// Decay time constant of the time-weighted steal average feeding rt_avg.
/// A sample covering `wall` time gets weight 1-exp(-wall/kStealAvgTau), so
/// long preemption gaps dominate short clean ticks (Linux's rt_avg is a
/// ~1 s sliding window; 100 ms keeps the simulation responsive).
inline constexpr sim::Duration kStealAvgTau = sim::milliseconds(100);

class StealClock {
 public:
  /// Fold the runstate delta since the previous update into the average.
  void update(const hv::RunstateInfo& rs, sim::Time now);

  /// Smoothed fraction of recent wall time stolen by the hypervisor, in
  /// [0, 1].
  [[nodiscard]] double steal_frac() const { return frac_; }

  /// Raw cumulative steal time at the last update.
  [[nodiscard]] sim::Duration last_steal_total() const { return last_steal_; }

 private:
  double frac_ = 0.0;
  sim::Duration last_steal_ = 0;
  sim::Time last_update_ = 0;
  bool primed_ = false;
};

}  // namespace irs::guest
