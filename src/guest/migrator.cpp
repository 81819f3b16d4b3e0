#include "src/guest/migrator.h"

#include <cassert>
#include <limits>

#include "src/guest/guest_kernel.h"

namespace irs::guest {

Migrator::Migrator(sim::Engine& eng, GuestKernel& kernel)
    : eng_(eng), kernel_(kernel) {}

void Migrator::request(Task& t, int src_cpu) {
  assert(t.state() == TaskState::kMigrating);
  ++stats_.requests;
  queue_.push_back(Req{&t, src_cpu});
  pump();
}

void Migrator::pump() {
  if (busy_ || queue_.empty()) return;
  // The migrator is a kernel thread: it needs some vCPU of this VM to be
  // executing (though not the source one — paper §4.2).
  if (!kernel_.any_cpu_executing()) return;
  busy_ = true;
  eng_.schedule(kMigratorCost, [this]() { execute(); });
}

int Migrator::pick_target(int src_cpu) const {
  const MigratorPolicy policy = kernel_.config().migrator_policy;
  int best = -1;
  double best_score = std::numeric_limits<double>::infinity();
  int first_running = -1;
  for (int w = 0; w < kernel_.n_cpus(); ++w) {
    if (w == src_cpu) continue;
    // Algorithm 2 line 7: "call down to the hypervisor to check the actual
    // vCPU state" — guest-visible "online" is not enough.
    const hv::RunstateInfo rs =
        const_cast<GuestKernel&>(kernel_).hypercalls().vcpu_runstate(w);
    const GuestCpu& c = kernel_.cpu(w);
    const bool hv_idle =
        rs.state == hv::VcpuState::kBlocked && c.guest_idle();
    if (policy == MigratorPolicy::kIdleThenLeastLoaded && hv_idle) {
      return w;  // Algorithm 2 lines 8-10: idle sibling ends the search
    }
    if (rs.state == hv::VcpuState::kRunning) {
      if (first_running < 0) first_running = w;
      const double s = c.load_score();
      if (s < best_score) {
        best_score = s;
        best = w;
      }
    } else if (policy == MigratorPolicy::kLeastLoadedOnly && hv_idle) {
      const double s = c.load_score();
      if (s < best_score) {
        best_score = s;
        best = w;
      }
    }
    // Runnable (preempted) siblings are never eligible: the task would
    // just wait behind another descheduled vCPU.
  }
  if (policy == MigratorPolicy::kFirstRunning) {
    return first_running >= 0 ? first_running : src_cpu;
  }
  return best >= 0 ? best : src_cpu;
}

bool Migrator::migration_worthwhile(int src_cpu) const {
  const int target = pick_target(src_cpu);
  if (target == src_cpu) return false;
  const hv::RunstateInfo rs =
      const_cast<GuestKernel&>(kernel_).hypercalls().vcpu_runstate(target);
  if (rs.state == hv::VcpuState::kBlocked) return true;  // idle sibling
  return kernel_.cpu(target).load_score() + 0.5 <=
         kernel_.cpu(src_cpu).load_score();
}

void Migrator::execute() {
  busy_ = false;
  if (queue_.empty()) return;
  if (!kernel_.any_cpu_executing()) return;  // re-pumped on next vcpu start
  Req r = queue_.front();
  queue_.pop_front();
  Task& t = *r.task;
  assert(t.state() == TaskState::kMigrating);
  const int target = pick_target(r.src);
  if (target == r.src) {
    ++stats_.fallback_src;
  } else if (const_cast<GuestKernel&>(kernel_)
                 .hypercalls()
                 .vcpu_runstate(target)
                 .state == hv::VcpuState::kBlocked) {
    ++stats_.to_idle;
  } else {
    ++stats_.to_running;
  }
  t.set_state(TaskState::kReady);
  if (target != r.src) {
    kernel_.note_migration(t, r.src, target, &GuestStats::irs_migrations);
  }
  // __migrate_task: enqueue on the destination, kicking its vCPU if idle.
  // Wake-style placement (no min_vruntime rebase): the descheduled task
  // kept its low absolute vruntime while its vCPU was starved, so CFS
  // prioritises it on the destination — the paper's §5.2 observation that
  // "the migrated task likely has smaller virtual runtime and would be
  // prioritized by the CFS".
  kernel_.enqueue_task(t, target, /*wake_preempt=*/true);
  pump();
}

}  // namespace irs::guest
