// Vanilla-Linux-style load balancing for the guest (paper §2.3):
//  * periodic (push) balancing from each CPU's timer tick,
//  * new-idle (pull) balancing when a CPU is about to go idle.
//
// Only READY tasks sitting on a runqueue can be moved — a task that is
// "current" on a preempted vCPU is invisible to both paths. That blind spot
// is the second semantic gap IRS closes.
//
// Load is measured rt_avg-style: runnable tasks scaled by the CPU's
// effective capacity after hypervisor steal time, which is how stock Linux
// ends up spreading ab's many threads away from interfered vCPUs (§5.3).
#pragma once

#include <cstdint>

#include "src/guest/types.h"

namespace irs::guest {

/// Most ready tasks one periodic balance pulls from the busiest CPU.
inline constexpr int kBalanceMaxMoves = 4;

class GuestCpu;
class GuestKernel;
class Task;
struct GuestStats;

class LoadBalancer {
 public:
  explicit LoadBalancer(GuestKernel& kernel) : kernel_(kernel) {}

  /// Periodic balance on behalf of `me` (runs from its tick). Pulls up to
  /// kBalanceMaxMoves ready tasks from the busiest CPU if imbalanced.
  void periodic(GuestCpu& me);

  /// `me` is about to go idle: try to pull one ready task. Returns true if
  /// a task was enqueued on `me`.
  bool newidle(GuestCpu& me);

  /// Effective-capacity load metric used for imbalance decisions.
  [[nodiscard]] static double load_metric(const GuestCpu& c);

 private:
  GuestCpu* busiest_other(const GuestCpu& me) const;
  /// Move one ready task and count it in the GuestStats field `ctr`
  /// (push_migrations or pull_migrations).
  bool move_one(GuestCpu& from, GuestCpu& to, std::uint64_t GuestStats::*ctr);

  GuestKernel& kernel_;
};

}  // namespace irs::guest
