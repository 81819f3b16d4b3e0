// Physical CPU: one credit-scheduler runqueue plus the currently running
// vCPU.
#pragma once

#include <deque>
#include <vector>

#include "src/hv/types.h"
#include "src/hv/vcpu.h"
#include "src/sim/engine.h"

namespace irs::hv {

class PleMonitor;

/// A physical CPU. The runqueue holds runnable vCPUs grouped by priority
/// class (BOOST, UNDER, OVER), FIFO within a class — credit1's layout.
class Pcpu {
 public:
  explicit Pcpu(PcpuId id) : id_(id) {}

  [[nodiscard]] PcpuId id() const { return id_; }

  [[nodiscard]] Vcpu* current() const { return current_; }
  void set_current(Vcpu* v);
  [[nodiscard]] bool idle() const { return current_ == nullptr; }

  /// Fold the busy/idle interval since the last sample into the decayed
  /// utilisation average (called from the scheduler tick).
  void sample_util(sim::Time now);
  /// Time-decayed fraction of recent time this pCPU was busy. This is the
  /// "computational load" signal VM-oblivious placement uses — and why
  /// deceptively-idle (blocking) vCPUs attract each other onto one pCPU
  /// (paper §5.6).
  [[nodiscard]] double util_avg() const { return util_avg_; }

  /// Insert at the tail of the vCPU's priority class.
  void enqueue(Vcpu* v);
  /// Insert at the head of the vCPU's priority class (used when a preempted
  /// vCPU should run again as soon as possible, e.g. relaxed-co boosting).
  void enqueue_front(Vcpu* v);
  /// Remove a specific vCPU from the queue. Returns false if absent.
  bool remove(Vcpu* v);

  /// Best queued candidate without removing it (skips co-stopped vCPUs).
  [[nodiscard]] Vcpu* peek_best() const;
  /// Remove and return the best queued candidate (skips co-stopped vCPUs).
  Vcpu* pop_best();

  [[nodiscard]] const std::deque<Vcpu*>& queue() const { return runq_; }
  [[nodiscard]] std::size_t queue_len() const { return runq_.size(); }
  /// Runnable load: queued vCPUs plus the running one. Used by wake
  /// placement (this is the utilisation-driven metric that causes the
  /// CPU-stacking behaviour of §5.6).
  [[nodiscard]] std::size_t load() const {
    return runq_.size() + (current_ ? 1 : 0);
  }

  /// Pending one-shot resched event (coalesces schedule requests).
  bool sched_pending = false;
  /// Periodic credit-burn tick.
  sim::EventHandle tick_timer;

  /// Route runqueue growth and the running vCPU's departure to the PLE
  /// monitor (null: PLE off). See PleMonitor::wake.
  void set_ple(PleMonitor* ple) { ple_ = ple; }

 private:
  /// The one PLE hook: enqueue(), enqueue_front() and set_current() call
  /// it, which covers every runqueue growth (wake, yield, deschedule,
  /// queue rebuild, relaxed-co's boost) and every way the running vCPU
  /// leaves Running (block, yield, deschedule).
  void wake_ple();

  PcpuId id_;
  Vcpu* current_ = nullptr;
  PleMonitor* ple_ = nullptr;
  std::deque<Vcpu*> runq_;
  double util_avg_ = 0.0;
  sim::Time last_util_sample_ = 0;
};

}  // namespace irs::hv
