#include "src/hv/ple.h"

#include "src/hv/host.h"

namespace irs::hv {

PleMonitor::PleMonitor(sim::Engine& eng, const HvConfig& cfg,
                       CreditScheduler& sched, std::vector<Pcpu>& pcpus,
                       obs::Counters& counters, sim::Trace& trace)
    : eng_(eng),
      cfg_(cfg),
      sched_(sched),
      pcpus_(pcpus),
      counters_(counters),
      trace_(trace) {}

void PleMonitor::on_spin_signal(Vcpu& v, bool spinning) {
  if (!spinning || v.state() != VcpuState::kRunning) {
    v.ple_timer.cancel();
    return;
  }
  if (v.ple_timer.pending()) return;  // window already counting
  arm(v);
}

void PleMonitor::arm(Vcpu& v) {
  Vcpu* vp = &v;
  v.ple_timer =
      eng_.schedule(cfg_.ple_window, [this, vp]() { fire(*vp); }, "hv.ple");
}

void PleMonitor::fire(Vcpu& v) {
  // The window only counts while the vCPU keeps spinning on a pCPU.
  if (v.state() != VcpuState::kRunning || !v.spinning()) return;
  Pcpu& p = pcpus_[v.pcpu()];
  if (p.queue_len() == 0) {
    // Nobody to yield to; keep running and keep watching.
    arm(v);
    return;
  }
  counters_.inc(cnt_shard(v), obs::Cnt::kPleExits);
  trace_.record(eng_.now(), sim::TraceKind::kPleExit, v.id(), v.pcpu());
  // Charge the VM-exit cost, then let the scheduler pick someone else.
  Vcpu* vp = &v;
  eng_.schedule(
      cfg_.ple_exit_cost,
      [this, vp]() {
        if (vp->state() == VcpuState::kRunning) sched_.force_preempt(*vp);
      },
      "hv.ple_exit");
}

}  // namespace irs::hv
