#include "src/hv/ple.h"

#include "src/hv/host.h"

namespace irs::hv {

PleMonitor::PleMonitor(sim::Engine& eng, CreditScheduler& sched,
                       std::vector<Pcpu>& pcpus, StrategyStats& stats,
                       sim::Trace& trace)
    : eng_(eng), sched_(sched), pcpus_(pcpus), stats_(stats), trace_(trace) {}

void PleMonitor::on_spin_signal(Vcpu& v, bool spinning) {
  if (!spinning || v.state() != VcpuState::kRunning) {
    v.ple_timer.cancel();
    v.ple_dormant = false;
    return;
  }
  // The window is already counting, polled or dormant.
  if (v.ple_timer.pending() || v.ple_dormant) return;
  poll_at(v, eng_.now() + kPleWindow);
}

void PleMonitor::wake(Vcpu& v) {
  if (!v.ple_dormant) return;
  v.ple_dormant = false;
  const sim::Duration w = kPleWindow;
  poll_at(v, v.ple_anchor + ((eng_.now() - v.ple_anchor) / w + 1) * w);
}

void PleMonitor::poll_at(Vcpu& v, sim::Time when) {
  Vcpu* vp = &v;
  v.ple_timer = eng_.schedule_at(when, [this, vp]() { fire(*vp); });
}

void PleMonitor::fire(Vcpu& v) {
  // The window only counts while the vCPU keeps spinning on a pCPU.
  if (v.state() != VcpuState::kRunning || !v.spinning()) return;
  Pcpu& p = pcpus_[v.pcpu()];
  if (p.queue_len() == 0) {
    // Nobody to yield to: keep running, and keep counting windows without
    // polling until someone could be yielded to.
    v.ple_dormant = true;
    v.ple_anchor = eng_.now();
    return;
  }
  ++stats_.ple_exits;
  trace_.record(eng_.now(), sim::TraceKind::kPleExit, v.id(), v.pcpu());
  // Charge the VM-exit cost, then let the scheduler pick someone else.
  Vcpu* vp = &v;
  eng_.schedule(
      kPleExitCost,
      [this, vp]() {
        if (vp->state() == VcpuState::kRunning) sched_.force_preempt(*vp);
      });
}

}  // namespace irs::hv
