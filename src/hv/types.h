// Core identifier types, constants and the tunable for the hypervisor
// substrate.
//
// The hypervisor model follows Xen's credit scheduler (credit1) as described
// in the IRS paper: 30 ms time slices, 10 ms ticks, 30 ms credit accounting,
// BOOST/UNDER/OVER priorities, wake-up boosting and idle-time vCPU stealing.
#pragma once

#include <cstdint>
#include <limits>

#include "src/sim/time.h"

namespace irs::hv {

using PcpuId = std::int32_t;
using VcpuId = std::int32_t;
using VmId = std::int32_t;

inline constexpr PcpuId kNoPcpu = -1;
inline constexpr VcpuId kNoVcpu = -1;

/// Hypervisor-visible vCPU states (paper §3.2): running on a pCPU, runnable
/// (preempted but has work), or blocked (guest idle / waiting for events).
enum class VcpuState : std::uint8_t { kRunning, kRunnable, kBlocked };

/// Credit-scheduler priority classes, ordered best-first.
enum class CreditPrio : std::uint8_t { kBoost = 0, kUnder = 1, kOver = 2 };

/// Why a vCPU lost its pCPU (guest kernels pause accounting either way, but
/// tests and metrics distinguish the cases).
enum class StopReason : std::uint8_t {
  kPreempted,  // involuntary: slice expiry, boost preemption, PLE, co-stop
  kYielded,    // voluntary SCHEDOP_yield
  kBlocked,    // voluntary SCHEDOP_block
};

/// Virtual IRQ numbers, delivered by GuestOs::deliver_virq (Xen's event
/// channels, which the model does not represent as objects).
enum class Virq : std::uint8_t {
  kSaUpcall,  // VIRQ_SA_UPCALL — the IRS scheduler-activation notification
};

/// Credit accounting period: credits are minted weight-proportionally
/// this often (credit1's 30 ms). The relaxed co-scheduling monitor
/// re-evaluates skew on the same cadence.
inline constexpr sim::Duration kAccountingPeriod = sim::milliseconds(30);

/// The hypervisor's one tunable. Every other credit1 parameter and every
/// strategy cost or window is a constant beside the component that reads
/// it (DESIGN §5.1 lists them).
struct HvConfig {
  /// --- IRS scheduler-activation knob (hypervisor half, §3.1/§4.1) ---
  /// Hard cap on how long a preemption may be delayed waiting for the guest
  /// to acknowledge an SA (defends against rogue guests).
  sim::Duration sa_ack_cap = sim::microseconds(100);
};

}  // namespace irs::hv
