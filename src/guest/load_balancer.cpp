#include "src/guest/load_balancer.h"

#include <algorithm>

#include "src/guest/guest_cpu.h"
#include "src/guest/guest_kernel.h"

namespace irs::guest {

double LoadBalancer::load_metric(const GuestCpu& c) {
  // Runnable load scaled by the CPU's effective capacity after steal time:
  // a vCPU that only gets half its pCPU counts each runnable task double.
  const double capacity = std::max(0.1, 1.0 - c.steal_frac());
  return static_cast<double>(c.nr_running()) / capacity;
}

GuestCpu* LoadBalancer::busiest_other(const GuestCpu& me) const {
  GuestCpu* busiest = nullptr;
  double best = 0.0;
  for (int i = 0; i < kernel_.n_cpus(); ++i) {
    GuestCpu& c = kernel_.cpu(i);
    if (&c == &me) continue;
    if (c.rq().nr_ready() == 0) continue;  // nothing movable anyway
    const double m = load_metric(c);
    if (busiest == nullptr || m > best) {
      busiest = &c;
      best = m;
    }
  }
  return busiest;
}

bool LoadBalancer::move_one(GuestCpu& from, GuestCpu& to,
                            std::uint64_t GuestStats::*ctr) {
  // Prefer returning an IRS-displaced task to its home vCPU (paper §3.3:
  // "we rely on the Linux load balancer to migrate the tagged task back to
  // the preempted vCPU when it is scheduled again").
  Task* t = from.rq().tagged_for(to.idx());
  if (t == nullptr) t = from.rq().hottest_to_steal();
  if (t == nullptr) return false;
  from.rq().remove(*t);
  kernel_.note_migration(*t, from.idx(), to.idx(), ctr);
  kernel_.migrate_enqueue(*t, from.idx(), to.idx(), /*wake_preempt=*/false);
  return true;
}

void LoadBalancer::periodic(GuestCpu& me) {
  // Push side (models Linux's nohz-idle balancing on behalf of idle CPUs):
  // if we have excess runnable tasks and a sibling looks idle, hand one
  // over and kick its vCPU. The decision is capacity-aware: pushing onto a
  // CPU whose (last known) steal fraction is high does not improve the
  // effective balance. Note "looks idle" is the guest view — a preempted
  // vCPU with an empty queue is indistinguishable from a truly idle one
  // (the semantic gap), and the steal estimate of a descheduled vCPU is
  // stale, so bad pushes still happen occasionally, as in real Linux.
  if (me.nr_running() >= 2 && me.rq().nr_ready() >= 1) {
    const double my_metric = load_metric(me);
    for (int c = 0; c < kernel_.n_cpus(); ++c) {
      GuestCpu& peer = kernel_.cpu(c);
      if (&peer == &me || !peer.guest_idle()) continue;
      const double peer_cap = std::max(0.1, 1.0 - peer.steal_frac());
      const double peer_after = 1.0 / peer_cap;
      if (peer_after + 0.25 >= my_metric) continue;  // no balance gain
      move_one(me, peer, &GuestStats::push_migrations);
      break;
    }
  }
  // Pull side.
  for (int moved = 0; moved < kBalanceMaxMoves; ++moved) {
    GuestCpu* b = busiest_other(me);
    if (b == nullptr) return;
    // Move only on real imbalance: the busiest CPU must stay at least as
    // loaded as us after the move (Linux's imbalance ~= half the gap;
    // a 2-vs-1 split is already balanced and moving would ping-pong).
    if (b->nr_running() < me.nr_running() + 2) return;
    if (load_metric(*b) - load_metric(me) < 1.0) return;
    if (!move_one(*b, me, &GuestStats::push_migrations)) return;
  }
}

bool LoadBalancer::newidle(GuestCpu& me) {
  // Paper §6 extension: an idle CPU may pull the CURRENT task off a
  // sibling vCPU the hypervisor has preempted — "migrating a running task
  // from a preempted vCPU", which vanilla kernels cannot express.
  if (kernel_.role().irs_pull) {
    for (int c = 0; c < kernel_.n_cpus(); ++c) {
      GuestCpu& peer = kernel_.cpu(c);
      if (&peer == &me || peer.current() == nullptr || peer.vcpu_running()) {
        continue;
      }
      if (kernel_.hypercalls().vcpu_runstate(c).state !=
          hv::VcpuState::kRunnable) {
        continue;
      }
      guest::Task* t = peer.yank_current_if_preempted();
      if (t == nullptr) continue;
      ++kernel_.stats().irs_pull_migrations;
      t->migrating_tag = true;
      t->tag_runtime = 0;
      t->irs_home = c;
      kernel_.note_migration(*t, c, me.idx(), &GuestStats::irs_migrations);
      kernel_.enqueue_task(*t, me.idx(), /*wake_preempt=*/false);
      return true;
    }
  }
  GuestCpu* b = busiest_other(me);
  if (b == nullptr) return false;
  if (b->rq().nr_ready() == 0) return false;
  if (b->nr_running() < 2) {
    // Sole-task donor: only rescue a task stranded on a CPU whose vCPU has
    // been hypervisor-preempted (runnable but not running) for a while —
    // that task cannot be dispatched until the vCPU gets a pCPU back. A
    // running / just-kicked donor will schedule it momentarily; stealing
    // would just bounce the task straight back.
    if (b->current() != nullptr) return false;
    const hv::RunstateInfo rs =
        kernel_.hypercalls().vcpu_runstate(b->idx());
    if (rs.state != hv::VcpuState::kRunnable) return false;
    if (kernel_.engine().now() - rs.state_entered < sim::milliseconds(1)) {
      return false;
    }
  }
  return move_one(*b, me, &GuestStats::pull_migrations);
}

}  // namespace irs::guest
