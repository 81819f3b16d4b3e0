#include "src/guest/steal_clock.h"

#include <algorithm>
#include <cmath>

namespace irs::guest {

void StealClock::update(const hv::RunstateInfo& rs, sim::Time now) {
  if (!primed_) {
    primed_ = true;
    last_steal_ = rs.time_runnable;
    last_update_ = now;
    return;
  }
  const sim::Duration wall = now - last_update_;
  if (wall <= 0) return;
  const sim::Duration steal = rs.time_runnable - last_steal_;
  last_steal_ = rs.time_runnable;
  last_update_ = now;
  const double inst =
      std::clamp(static_cast<double>(steal) / static_cast<double>(wall), 0.0, 1.0);
  // Time-weighted EWMA: a sample spanning more wall time carries more
  // weight, so the estimate converges to the true steal fraction even
  // though updates only run while the vCPU is scheduled.
  const double w = 1.0 - std::exp(-static_cast<double>(wall) /
                                  static_cast<double>(kStealAvgTau));
  frac_ = w * inst + (1.0 - w) * frac_;
}

}  // namespace irs::guest
