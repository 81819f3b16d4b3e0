// Shared types, constants and tunables for the guest-kernel substrate.
//
// The guest model follows Linux 3.18-era CFS: per-CPU runqueues ordered by
// vruntime, a 250 Hz tick, wake-up preemption, and push/pull/wake-up load
// balancing. IRS's guest half (SA receiver, context switcher, migrator,
// wake-up fix) is configured here too.
#pragma once

#include <cstdint>

#include "src/sim/time.h"

namespace irs::guest {

using TaskId = std::int32_t;
inline constexpr TaskId kNoTask = -1;
inline constexpr int kNoCpu = -1;

/// Guest-visible task states.
enum class TaskState : std::uint8_t {
  kRunning,    // current on some guest CPU (may still be frozen if the
               // backing vCPU is preempted — the semantic gap)
  kReady,      // enqueued on a runqueue, waiting for the CPU
  kSpinning,   // current on a CPU, burning cycles on a spin lock
  kBlocked,    // waiting on a blocking primitive (mutex/barrier/pipe)
  kSleeping,   // timed sleep
  kMigrating,  // dequeued by the IRS context switcher, held by the migrator
  kFinished,
};

/// How the IRS migrator chooses a destination vCPU (ablation knob; the
/// paper's Algorithm 2 is kIdleThenLeastLoaded).
enum class MigratorPolicy : std::uint8_t {
  kIdleThenLeastLoaded,  // idle sibling first, else least rt_avg RUNNING one
  kLeastLoadedOnly,      // skip the idle-first shortcut
  kFirstRunning,         // naive: first sibling the hypervisor says runs
};

/// Delay before the asynchronously woken migrator performs a migration.
inline constexpr sim::Duration kMigratorCost = sim::microseconds(4);

/// Guest-kernel tunables: the three IRS design choices the ablations vary.
/// Every other CFS parameter and IRS cost is a constant beside the
/// component that reads it (DESIGN §5.1 lists them).
struct GuestConfig {
  /// Idle housekeeping period: a blocked (idle) vCPU wakes this often for
  /// residual timers/RCU work and runs a new-idle balance before blocking
  /// again — this is how work drifts back onto a vCPU that went idle.
  /// 0 disables (full tickless idle).
  sim::Duration idle_poll_period = sim::milliseconds(10);
  MigratorPolicy migrator_policy = MigratorPolicy::kIdleThenLeastLoaded;
  /// Fix of Fig. 4: a waking task preempts a tagged (IRS-migrated) task on
  /// its old CPU instead of being bounced to another CPU.
  bool irs_wakeup_fix = true;
};

/// The guest's paravirtual role. core::HostNode derives it from the host's
/// strategy and whether the VM is IRS-capable; no caller sets it.
struct ParavirtRole {
  /// IRS guest half: the SA receiver, context switcher and migrator
  /// (registers VIRQ_SA_UPCALL).
  bool irs_enabled = false;
  /// Paper §6 extension ("the ideal migration should be pull-based"):
  /// an idle guest CPU may pull the *current* task off a sibling vCPU that
  /// the hypervisor has preempted — the "migrate a running task" mechanism
  /// the paper calls future work.
  bool irs_pull = false;
  /// Paravirtual lock hints (delay-preemption baseline): the guest tells
  /// the hypervisor whenever the current task holds a lock.
  bool paravirt_lock_hints = false;
};

}  // namespace irs::guest
