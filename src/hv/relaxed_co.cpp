#include "src/hv/relaxed_co.h"

#include <algorithm>

#include "src/hv/host.h"

namespace irs::hv {

RelaxedCoMonitor::RelaxedCoMonitor(sim::Engine& eng, CreditScheduler& sched,
                                   std::vector<Pcpu>& pcpus,
                                   std::vector<Vm*>& vms, StrategyStats& stats,
                                   sim::Trace& trace)
    : eng_(eng),
      sched_(sched),
      pcpus_(pcpus),
      vms_(vms),
      stats_(stats),
      trace_(trace) {}

void RelaxedCoMonitor::start() {
  eng_.schedule(kAccountingPeriod, [this]() { on_period(); });
}

void RelaxedCoMonitor::on_period() {
  // Release vCPUs stopped last period, then re-evaluate skew.
  for (Vm* vm : vms_) {
    for (Vcpu* v : vm->vcpus()) {
      if (v->co_stopped) {
        v->co_stopped = false;
        if (v->state() == VcpuState::kRunnable &&
            v->resident() != kNoPcpu) {
          sched_.request_resched(pcpus_[v->resident()]);
        }
      }
    }
  }
  for (Vm* vm : vms_) {
    if (vm->n_vcpus() > 1) check_vm(*vm);
  }
  eng_.schedule(kAccountingPeriod, [this]() { on_period(); });
}

void RelaxedCoMonitor::check_vm(Vm& vm) {
  const sim::Time now = eng_.now();
  Vcpu* leader = nullptr;
  Vcpu* laggard = nullptr;
  sim::Duration lead_prog = 0;
  sim::Duration lag_prog = 0;
  for (Vcpu* v : vm.vcpus()) {
    const auto id = static_cast<std::size_t>(v->id());
    if (last_snapshot_.size() <= id) {
      last_snapshot_.resize(id + 1, 0);
      progress_.resize(id + 1, 0);
    }
    // "A vCPU makes progress when it executes guest instructions or is in
    // the IDLE state" — running + blocked time counts; runnable (steal)
    // time does not. Skew is evaluated per accounting period (the monitor
    // "stops vCPUs that accrue enough skew" within a window; cumulative
    // skew would saturate under persistent interference and stop leaders
    // forever).
    const sim::Duration cum = v->time_running(now) + v->time_blocked(now);
    progress_[id] = cum - last_snapshot_[id];
    last_snapshot_[id] = cum;
    if (leader == nullptr || progress_[id] > lead_prog) {
      leader = v;
      lead_prog = progress_[id];
    }
    if (laggard == nullptr || progress_[id] < lag_prog) {
      laggard = v;
      lag_prog = progress_[id];
    }
  }
  if (leader == nullptr || laggard == nullptr || leader == laggard) return;
  if (lead_prog - lag_prog <= kCoSkewThreshold) return;

  ++stats_.co_stops;
  trace_.record(now, sim::TraceKind::kCoStop, leader->id(), laggard->id());
  const PcpuId freed =
      leader->state() == VcpuState::kRunning ? leader->pcpu() : kNoPcpu;
  leader->co_stopped = true;
  if (leader->state() == VcpuState::kRunning) {
    sched_.force_preempt(*leader);
  }
  // Release the leader once the laggard has had a chance to catch up —
  // stopping for a whole accounting period would stall group-synchronised
  // guests for dozens of phases.
  Vcpu* lead = leader;
  eng_.schedule(
      kCoStopDuration,
      [this, lead]() {
        if (!lead->co_stopped) return;
        lead->co_stopped = false;
        if (lead->state() == VcpuState::kRunnable &&
            lead->resident() != kNoPcpu) {
          sched_.request_resched(pcpus_[lead->resident()]);
        }
      });
  // The paper's optimisation: switch the stopped leader with the slowest
  // sibling — boost the laggard into the freed slot.
  if (laggard->state() == VcpuState::kRunnable) {
    Pcpu& from = pcpus_[laggard->resident()];
    from.remove(laggard);
    laggard->set_prio(CreditPrio::kBoost);
    // Move into the freed slot only if affinity allows it.
    Pcpu& to = (freed != kNoPcpu && laggard->allowed_on(freed))
                   ? pcpus_[freed]
                   : from;
    to.enqueue_front(laggard);
    sched_.request_resched(to);
  }
}

}  // namespace irs::hv
