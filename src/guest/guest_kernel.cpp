#include "src/guest/guest_kernel.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace irs::guest {

GuestKernel::GuestKernel(sim::Engine& eng, GuestConfig cfg, ParavirtRole role,
                         int n_cpus, hv::Hypercalls& hc, sim::Trace& trace,
                         std::function<void(int, bool)> spin_signal,
                         std::function<void(int, bool)> lock_signal)
    : eng_(eng),
      cfg_(cfg),
      role_(role),
      hc_(hc),
      spin_signal_(std::move(spin_signal)),
      lock_signal_(std::move(lock_signal)),
      trace_(trace) {
  assert(n_cpus > 0);
  // Checked in every build: the idle poll period may be 0 (off), never
  // negative.
  if (cfg_.idle_poll_period < 0) {
    throw std::invalid_argument(
        "GuestKernel: GuestConfig.idle_poll_period must be >= 0 (got " +
        std::to_string(cfg_.idle_poll_period) + ")");
  }
  cpus_.reserve(static_cast<std::size_t>(n_cpus));
  for (int i = 0; i < n_cpus; ++i) {
    cpus_.push_back(std::make_unique<GuestCpu>(*this, i));
  }
  migrator_ = std::make_unique<Migrator>(eng_, *this);
  balancer_ = std::make_unique<LoadBalancer>(*this);
}

GuestKernel::~GuestKernel() = default;

Task& GuestKernel::create_task(std::string name, Behavior& behavior,
                               int initial_cpu) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(std::make_unique<Task>(id, std::move(name), &behavior,
                                          task_seed_rng_.fork()));
  Task& t = *tasks_.back();
  t.set_cpu(initial_cpu != kNoCpu ? initial_cpu
                                  : id % static_cast<TaskId>(n_cpus()));
  return t;
}

void GuestKernel::start() {
  assert(!started_);
  started_ = true;
  for (auto& tp : tasks_) {
    Task& t = *tp;
    if (t.state() != TaskState::kReady || t.cpu() == kNoCpu) continue;
    // Boot enqueue counts as a wake for the timeline/attribution: the task
    // is runnable from here on even if its vCPU waits a while for a pCPU.
    trace_.record(eng_.now(), sim::TraceKind::kGuestWake, t.id(),
                  trace_gcpu(t.cpu()));
    enqueue_task(t, t.cpu(), /*wake_preempt=*/false);
  }
  // CPUs that boot with nothing to run still wake periodically for idle
  // housekeeping (they may pull work that appears later).
  for (auto& c : cpus_) {
    if (c->guest_idle() && !c->vcpu_running()) c->arm_idle_housekeeping();
  }
}

// ---------------------------------------------------------------------------
// hv::GuestOs
// ---------------------------------------------------------------------------

void GuestKernel::vcpu_started(int vcpu) { cpu(vcpu).on_vcpu_start(); }

void GuestKernel::vcpu_stopped(int vcpu, hv::StopReason reason) {
  cpu(vcpu).on_vcpu_stop(reason);
}

void GuestKernel::deliver_virq(int vcpu, hv::Virq irq) {
  if (irq == hv::Virq::kSaUpcall) cpu(vcpu).on_sa_upcall();
}

hv::PreemptClass GuestKernel::classify_preemption(int vcpu) const {
  hv::PreemptClass pc;
  const Task* t = cpu(vcpu).current();
  if (t == nullptr) return pc;
  pc.holds_lock = t->locks_held > 0;
  pc.waits_lock = t->spin_waiting != nullptr;
  pc.task = t->id();
  // LWP names the primitive being spun on; LHP the held lock. A task can be
  // both (spinning while holding another lock) — the wait wins: that is the
  // dependency the preemption actually froze.
  if (pc.waits_lock) {
    pc.lock_name = t->spin_waiting->wait_name();
  } else if (pc.holds_lock) {
    pc.lock_name = t->held_lock_name;
  }
  return pc;
}

std::size_t GuestKernel::runnable_tasks() const {
  std::size_t n = 0;
  for (const auto& c : cpus_) n += c->nr_running();
  return n;
}

// ---------------------------------------------------------------------------
// SchedApi
// ---------------------------------------------------------------------------

bool GuestKernel::task_executing(const Task& t) const {
  if (t.cpu() == kNoCpu) return false;
  const GuestCpu& c = cpu(t.cpu());
  return c.current() == &t && c.vcpu_running();
}

void GuestKernel::spin_granted(Task& t) { cpu(t.cpu()).spin_acquired(t); }

void GuestKernel::wake_task(Task& t) {
  if (t.state() != TaskState::kBlocked && t.state() != TaskState::kSleeping) {
    return;  // spurious wake (e.g. already woken through another path)
  }
  ++t.stats.wakeups;
  t.sleep_timer.cancel();
  const int from = t.cpu();
  const int target = select_task_rq(t);
  if (target != from) {
    note_migration(t, from, target, &GuestStats::wake_migrations);
  }
  trace_.record(eng_.now(), sim::TraceKind::kGuestWake, t.id(),
                trace_gcpu(target));
  cpu(target).enqueue_ready(t, /*wake_preempt=*/true);
}

// ---------------------------------------------------------------------------
// Scheduling services
// ---------------------------------------------------------------------------

int GuestKernel::select_task_rq(Task& t) {
  const int prev = t.cpu() == kNoCpu ? 0 : t.cpu();
  const GuestCpu& pc = cpu(prev);
  // 1) Previous CPU if (guest-)idle — note a preempted vCPU with an empty
  //    queue also looks idle; the guest cannot tell the difference.
  if (pc.guest_idle()) return prev;
  // 2) IRS wake-up fix (Fig. 4): if the previous CPU currently runs a task
  //    that was force-migrated there by IRS, wake in place and preempt it
  //    rather than ping-ponging away.
  if (wakeup_fix() && pc.current() != nullptr && pc.current()->migrating_tag) {
    return prev;
  }
  // 3) select_idle_sibling: first guest-idle CPU, scanning from prev+1.
  for (int i = 1; i < n_cpus(); ++i) {
    const int c = (prev + i) % n_cpus();
    if (cpu(c).guest_idle()) return c;
  }
  // 4) No idle CPU: pick the least-loaded by the rt_avg-style score (steal
  //    time included), preferring prev on ties.
  int best = prev;
  double best_score = pc.load_score();
  for (int c = 0; c < n_cpus(); ++c) {
    if (c == prev) continue;
    const double s = cpu(c).load_score();
    if (s + 1e-9 < best_score) {
      best = c;
      best_score = s;
    }
  }
  return best;
}

void GuestKernel::enqueue_task(Task& t, int target, bool wake_preempt) {
  cpu(target).enqueue_ready(t, wake_preempt);
}

void GuestKernel::migrate_enqueue(Task& t, int from, int to,
                                  bool wake_preempt) {
  if (from != to && from != kNoCpu) {
    t.vruntime = t.vruntime - cpu(from).rq().min_vruntime() +
                 cpu(to).rq().min_vruntime();
    if (t.vruntime < 0) t.vruntime = 0;
  }
  cpu(to).enqueue_ready(t, wake_preempt, /*normalize_vruntime=*/false);
}

void GuestKernel::note_migration(Task& t, int from, int to,
                                 std::uint64_t GuestStats::*ctr) {
  if (from == to) return;
  ++t.stats.migrations;
  ++(stats_.*ctr);
  t.cache_debt += migration_penalty();
  // A regular balancer move retires the tag; an IRS move keeps it, since
  // the wake-up fix needs it.
  if (ctr != &GuestStats::irs_migrations) t.migrating_tag = false;
  if (!trace_.enabled()) return;
  // Carry the charged cache penalty (ns) in the note so forensics can
  // attribute the post-migration transient without re-deriving the model.
  char penalty[sim::TraceNote::kMax + 1];
  std::snprintf(penalty, sizeof penalty, "%lld",
                static_cast<long long>(migration_penalty()));
  trace_.record(eng_.now(), sim::TraceKind::kMigrate, t.id(),
                trace_gcpu(to), penalty, trace_gcpu(from));
}

void GuestKernel::kick_if_blocked(int c) {
  if (hc_.vcpu_runstate(c).state == hv::VcpuState::kBlocked) {
    hc_.vcpu_kick(c);
  }
}

bool GuestKernel::sibling_may_execute(int except_cpu) const {
  if (n_cpus() <= 1) return false;  // nowhere to migrate to
  // Blocked siblings are revivable: the migrator's enqueue kicks them, and
  // idle housekeeping wakes them periodically. Only with housekeeping off
  // must we insist on a sibling that is already runnable/running, or a
  // migrated task could be stranded in limbo.
  if (cfg_.idle_poll_period > 0) return true;
  for (int c = 0; c < n_cpus(); ++c) {
    if (c == except_cpu) continue;
    if (hc_.vcpu_runstate(c).state != hv::VcpuState::kBlocked) return true;
  }
  return false;
}

bool GuestKernel::any_cpu_executing() const {
  for (const auto& c : cpus_) {
    if (c->vcpu_running()) return true;
  }
  return false;
}

sim::Duration GuestKernel::migration_penalty() const {
  const double p =
      static_cast<double>(kMigrationCachePenalty) * memory_intensity_;
  return static_cast<sim::Duration>(p);
}

void GuestKernel::notify_task_finished(Task& t) {
  if (on_finished_) on_finished_(t);
}

void GuestKernel::signal_spin(int c, bool spinning) {
  if (spin_signal_) spin_signal_(c, spinning);
}

void GuestKernel::signal_lock_hint(int c, bool holds_lock) {
  if (role_.paravirt_lock_hints && lock_signal_) lock_signal_(c, holds_lock);
}

}  // namespace irs::guest
