#include "src/hv/sa_sender.h"

#include "src/hv/host.h"

namespace irs::hv {

SaSender::SaSender(sim::Engine& eng, const HvConfig& cfg,
                   CreditScheduler& sched, StrategyStats& stats,
                   sim::Trace& trace)
    : eng_(eng), cfg_(cfg), sched_(sched), stats_(stats), trace_(trace) {}

bool SaSender::delay_preemption(Vcpu& cur) {
  // Algorithm 1, send_sa_event: only runnable (still willing to run) vCPUs
  // of SA-registered guests, and only when no SA is already pending.
  if (cur.state() != VcpuState::kRunning) return false;
  if (!cur.vm().has_guest() || !cur.vm().guest().sa_registered()) return false;
  if (cur.sa_pending()) return true;  // grace window already in progress

  cur.set_sa_pending(true);
  cur.sa_sent_at = eng_.now();
  ++cur.sa_sent;
  ++stats_.sa_sent;
  trace_.record(eng_.now(), sim::TraceKind::kSaSend, cur.id(), cur.pcpu());
  cur.vm().guest().deliver_virq(cur.idx(), Virq::kSaUpcall);

  // Hard cap: a guest that never acknowledges loses the pCPU anyway.
  Vcpu* v = &cur;
  cur.sa_cap_timer = eng_.schedule(
      cfg_.sa_ack_cap,
      [this, v]() {
        if (!v->sa_pending()) return;  // raced with a just-arrived ack
        v->set_sa_pending(false);
        ++stats_.sa_forced;
        stats_.sa_delay_total += eng_.now() - v->sa_sent_at;
        sched_.force_preempt(*v);
      });
  return true;
}

void SaSender::note_ack(Vcpu& v) {
  ++stats_.sa_acked;
  stats_.sa_delay_total += eng_.now() - v.sa_sent_at;
  trace_.record(eng_.now(), sim::TraceKind::kSaAck, v.id(), v.pcpu());
}

}  // namespace irs::hv
