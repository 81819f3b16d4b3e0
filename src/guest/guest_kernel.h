// The guest kernel for one VM: owns tasks and per-vCPU contexts, implements
// the hypervisor-facing GuestOs interface and the scheduler API used by the
// synchronisation layer, and hosts the IRS guest components (SA receiver /
// context switcher live in GuestCpu; migrator and load balancer here).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/guest/guest_cpu.h"
#include "src/guest/load_balancer.h"
#include "src/guest/migrator.h"
#include "src/guest/sched_api.h"
#include "src/guest/task.h"
#include "src/guest/types.h"
#include "src/hv/guest_os.h"
#include "src/hv/hypercalls.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace irs::guest {

/// Base cache-refill penalty charged to a task's next compute burst after
/// a cross-CPU migration; workloads scale it by their memory intensity.
inline constexpr sim::Duration kMigrationCachePenalty = sim::microseconds(60);

/// Guest-wide counters, owned by the kernel and bumped by the component
/// that sees the event (GuestCpu, the SA receiver and context switcher,
/// the load balancer, the migrator).
struct GuestStats {
  std::uint64_t guest_ctx_switches = 0;
  std::uint64_t wake_migrations = 0;   // wake-up balancing moved a task
  std::uint64_t push_migrations = 0;   // periodic balancer
  std::uint64_t pull_migrations = 0;   // new-idle balancer
  std::uint64_t irs_migrations = 0;    // IRS migrator
  std::uint64_t stop_migrations = 0;   // explicit stop-based migration
  std::uint64_t sa_received = 0;       // VIRQ_SA_UPCALL delivered
  std::uint64_t sa_replied_block = 0;  // context switcher -> SCHEDOP_block
  std::uint64_t sa_replied_yield = 0;  // context switcher -> SCHEDOP_yield
  std::uint64_t tag_preemptions = 0;   // Fig. 4 fix: waker preempted tagged
  std::uint64_t irs_pull_migrations = 0;  // §6 extension: pulled a "running"
                                          // task off a preempted vCPU
};

class GuestKernel final : public hv::GuestOs, public SchedApi {
 public:
  /// Guest records go straight to `trace`, the host's ring (a disabled
  /// ring drops them). `spin_signal(cpu, spinning)` reports PAUSE-loop
  /// activity to the host (consumed by the PLE monitor);
  /// `lock_signal(cpu, holds)` reports paravirtual lock hints
  /// (delay-preemption baseline). Either may be empty. Throws
  /// std::invalid_argument when `cfg.idle_poll_period` is negative.
  GuestKernel(sim::Engine& eng, GuestConfig cfg, ParavirtRole role,
              int n_cpus, hv::Hypercalls& hc, sim::Trace& trace,
              std::function<void(int, bool)> spin_signal = {},
              std::function<void(int, bool)> lock_signal = {});
  ~GuestKernel() override;

  // --- construction-time API ---
  /// Create a task; it starts Ready on `initial_cpu` (default round-robin)
  /// once start() is called.
  Task& create_task(std::string name, Behavior& behavior,
                    int initial_cpu = kNoCpu);

  /// Enqueue all created tasks and kick their vCPUs. Call once, after the
  /// host has been started.
  void start();

  // --- hv::GuestOs ---
  void vcpu_started(int vcpu) override;
  void vcpu_stopped(int vcpu, hv::StopReason reason) override;
  void deliver_virq(int vcpu, hv::Virq irq) override;
  [[nodiscard]] bool sa_registered() const override {
    return role_.irs_enabled;
  }
  [[nodiscard]] hv::PreemptClass classify_preemption(int vcpu) const override;

  // --- SchedApi (used by sync primitives) ---
  void wake_task(Task& t) override;
  [[nodiscard]] bool task_executing(const Task& t) const override;
  void spin_granted(Task& t) override;

  // --- scheduling services used by components ---
  /// Place a ready task on `cpu`'s queue (normalises vruntime, kicks a
  /// blocked vCPU, runs preemption checks).
  void enqueue_task(Task& t, int cpu, bool wake_preempt);
  /// Move a runnable task between CPUs preserving its relative CFS
  /// position: vruntime is rebased from the source queue's min_vruntime to
  /// the destination's (what Linux's migrate_task_rq_fair does).
  void migrate_enqueue(Task& t, int from, int to, bool wake_preempt);
  /// Wake-up CPU selection incl. the IRS wake-up fix (paper Fig. 4).
  [[nodiscard]] int select_task_rq(Task& t);
  /// Account a cross-CPU migration: stats, cache debt, tag bookkeeping.
  /// `ctr` names the migration-kind counter to bump (a *_migrations field).
  void note_migration(Task& t, int from, int to,
                      std::uint64_t GuestStats::*ctr);
  /// Kick the vCPU behind `cpu` if the hypervisor reports it blocked.
  void kick_if_blocked(int cpu);
  /// True if any *other* vCPU is not hypervisor-blocked — i.e. someone will
  /// eventually execute and can run the migrator. Guards the context
  /// switcher against stranding a task in migration limbo.
  [[nodiscard]] bool sibling_may_execute(int except_cpu) const;
  /// RNG used for modelled overhead jitter (SA handler cost etc.).
  [[nodiscard]] sim::Rng& cost_rng() { return cost_rng_; }
  /// Reseed all kernel-internal randomness. Call before workloads are
  /// instantiated so runs with different seeds diverge.
  void seed(std::uint64_t s) {
    task_seed_rng_.reseed(s);
    cost_rng_.reseed(s ^ 0x5EEDC0DEULL);
  }

  // --- accessors ---
  [[nodiscard]] int n_cpus() const { return static_cast<int>(cpus_.size()); }
  [[nodiscard]] GuestCpu& cpu(int i) { return *cpus_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const GuestCpu& cpu(int i) const {
    return *cpus_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const GuestConfig& config() const { return cfg_; }
  [[nodiscard]] const ParavirtRole& role() const { return role_; }
  /// The Fig. 4 wake-up fix applies: an IRS role tags the tasks it
  /// migrates, and the ablation knob leaves the fix on.
  [[nodiscard]] bool wakeup_fix() const {
    return (role_.irs_enabled || role_.irs_pull) && cfg_.irs_wakeup_fix;
  }
  [[nodiscard]] sim::Engine& engine() { return eng_; }
  [[nodiscard]] hv::Hypercalls& hypercalls() { return hc_; }
  [[nodiscard]] Migrator& migrator() { return *migrator_; }
  [[nodiscard]] LoadBalancer& balancer() { return *balancer_; }
  [[nodiscard]] GuestStats& stats() { return stats_; }
  [[nodiscard]] const GuestStats& stats() const { return stats_; }
  /// The trace ring this kernel records into.
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  /// Guest trace records identify CPUs by *global* vCPU id so one trace can
  /// hold several VMs. The base is the global id of this VM's vCPU 0
  /// (host ids are contiguous per VM); standalone kernels leave it at 0.
  void set_trace_vcpu_base(int base) { trace_vcpu_base_ = base; }
  [[nodiscard]] std::int32_t trace_gcpu(int cpu) const {
    return static_cast<std::int32_t>(trace_vcpu_base_ + cpu);
  }
  /// Guest-visible runnable load summed over CPUs (sampler gauge).
  [[nodiscard]] std::size_t runnable_tasks() const;
  [[nodiscard]] std::size_t n_tasks() const { return tasks_.size(); }
  [[nodiscard]] Task& task(std::size_t i) { return *tasks_.at(i); }
  [[nodiscard]] bool any_cpu_executing() const;

  /// How much cache-locality debt a migration of `t` costs (scaled by the
  /// workload's memory intensity, set via set_memory_intensity()).
  [[nodiscard]] sim::Duration migration_penalty() const;
  void set_memory_intensity(double mi) { memory_intensity_ = mi; }

  /// Called when any task finishes (workload completion tracking).
  void set_on_task_finished(std::function<void(Task&)> cb) {
    on_finished_ = std::move(cb);
  }
  void notify_task_finished(Task& t);

  void signal_spin(int cpu, bool spinning);
  void signal_lock_hint(int cpu, bool holds_lock);

 private:
  sim::Engine& eng_;
  GuestConfig cfg_;
  ParavirtRole role_;
  hv::Hypercalls& hc_;
  std::function<void(int, bool)> spin_signal_;
  std::function<void(int, bool)> lock_signal_;
  sim::Trace& trace_;
  GuestStats stats_;
  std::vector<std::unique_ptr<GuestCpu>> cpus_;
  std::deque<std::unique_ptr<Task>> tasks_;
  std::unique_ptr<Migrator> migrator_;
  std::unique_ptr<LoadBalancer> balancer_;
  std::function<void(Task&)> on_finished_;
  double memory_intensity_ = 1.0;
  sim::Rng task_seed_rng_{0xB0BACAFE};
  sim::Rng cost_rng_{0xC05CC05C};
  int trace_vcpu_base_ = 0;
  bool started_ = false;
};

}  // namespace irs::guest
