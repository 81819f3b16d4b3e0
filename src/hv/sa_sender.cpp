#include "src/hv/sa_sender.h"

#include "src/hv/host.h"

namespace irs::hv {

SaSender::SaSender(sim::Engine& eng, const HvConfig& cfg,
                   CreditScheduler& sched, obs::Counters& counters,
                   sim::Trace& trace)
    : eng_(eng), cfg_(cfg), sched_(sched), counters_(counters), trace_(trace) {}

bool SaSender::delay_preemption(Vcpu& cur) {
  // Algorithm 1, send_sa_event: only runnable (still willing to run) vCPUs
  // of SA-registered guests, and only when no SA is already pending.
  if (cur.state() != VcpuState::kRunning) return false;
  if (!cur.vm().has_guest() || !cur.vm().guest().sa_registered()) return false;
  if (cur.sa_pending()) return true;  // grace window already in progress

  cur.set_sa_pending(true);
  cur.sa_sent_at = eng_.now();
  counters_.inc(cnt_shard(cur), obs::Cnt::kSaSent);
  trace_.record(eng_.now(), sim::TraceKind::kSaSend, cur.id(), cur.pcpu());
  cur.vm().guest().deliver_virq(cur.idx(), Virq::kSaUpcall);

  // Hard cap: a guest that never acknowledges loses the pCPU anyway.
  Vcpu* v = &cur;
  cur.sa_cap_timer = eng_.schedule(
      cfg_.sa_ack_cap,
      [this, v]() {
        if (!v->sa_pending()) return;  // raced with a just-arrived ack
        v->set_sa_pending(false);
        counters_.inc(cnt_shard(*v), obs::Cnt::kSaForced);
        counters_.inc(cnt_shard(*v), obs::Cnt::kSaDelayTotalNs,
                      eng_.now() - v->sa_sent_at);
        sched_.force_preempt(*v);
      },
      "sa.cap");
  return true;
}

void SaSender::note_ack(Vcpu& v) {
  counters_.inc(cnt_shard(v), obs::Cnt::kSaAcked);
  counters_.inc(cnt_shard(v), obs::Cnt::kSaDelayTotalNs,
                eng_.now() - v.sa_sent_at);
  trace_.record(eng_.now(), sim::TraceKind::kSaAck, v.id(), v.pcpu());
}

}  // namespace irs::hv
