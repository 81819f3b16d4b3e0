#include "src/cluster/scheduler.h"

#include <cstring>

#include "src/cluster/cluster.h"

namespace irs::cluster {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kRandom:
      return "random";
    case Policy::kFirstFit:
      return "firstfit";
    case Policy::kIrs:
      return "irs";
  }
  return "?";
}

bool policy_from_name(std::string_view name, Policy* out) {
  for (Policy p : {Policy::kRandom, Policy::kFirstFit, Policy::kIrs}) {
    if (name == policy_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

Scheduler::Scheduler(Cluster& cluster, Policy policy, std::uint64_t seed)
    : cluster_(cluster),
      policy_(policy),
      rng_(seed ^ 0xC1057E12ULL),
      placed_vcpus_(static_cast<std::size_t>(cluster.n_hosts()), 0) {}

void Scheduler::note_fixed(int host, int n_vcpus) {
  placed_vcpus_[static_cast<std::size_t>(host)] += n_vcpus;
}

int Scheduler::place(int n_vcpus) {
  const int n = static_cast<int>(placed_vcpus_.size());
  int host = 0;
  switch (policy_) {
    case Policy::kRandom:
      host = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(n)));
      break;
    case Policy::kFirstFit: {
      // First host whose pCPUs still fit the VM; overflow to the least
      // loaded when nothing fits (the rack is oversubscribed anyway).
      host = -1;
      for (int h = 0; h < n; ++h) {
        if (placed_vcpus_[static_cast<std::size_t>(h)] + n_vcpus <=
            cluster_.node(h).host().n_pcpus()) {
          host = h;
          break;
        }
      }
      if (host < 0) {
        host = 0;
        for (int h = 1; h < n; ++h) {
          if (placed_vcpus_[static_cast<std::size_t>(h)] <
              placed_vcpus_[static_cast<std::size_t>(host)]) {
            host = h;
          }
        }
      }
      break;
    }
    case Policy::kIrs: {
      // Admission spread: least vCPUs placed, lowest index on ties.
      host = 0;
      for (int h = 1; h < n; ++h) {
        if (placed_vcpus_[static_cast<std::size_t>(h)] <
            placed_vcpus_[static_cast<std::size_t>(host)]) {
          host = h;
        }
      }
      break;
    }
  }
  placed_vcpus_[static_cast<std::size_t>(host)] += n_vcpus;
  return host;
}

void Scheduler::start() {
  // The baselines are placement-only: no decision loop, no migrations.
  if (policy_ != Policy::kIrs) return;
  cluster_.engine().schedule(kDecidePeriod, [this]() { decide(); });
}

void Scheduler::decide() {
  Cluster& c = cluster_;
  c.ledger_.decisions += 1;
  c.engine().schedule(kDecidePeriod, [this]() { decide(); });
  const CvmId prot = c.protected_vm();
  if (prot.host < 0 || c.n_hosts() < 2) return;

  // Is the protected VM burning budget? Its steal inside the latest
  // collector window over the burn threshold says yes.
  const Collector& pc = c.collector(prot.host);
  const Collector::VmSample& ps = pc.sample(prot.vm);
  const auto threshold = static_cast<sim::Duration>(
      static_cast<double>(kCollectPeriod) * kBurnFrac);
  if (ps.steal_delta <= threshold) return;

  // Victim: the noisiest migratable co-tenant on the protected host —
  // most CPU run in the window, LHP/LWP charge-back breaking ties
  // (deterministic: strict improvement, lowest index wins ties).
  const sim::Time now = c.engine().now();
  int victim = -1;
  sim::Duration victim_run = -1;
  std::int64_t victim_chatter = -1;
  for (int m = 0; m < c.n_migratable(); ++m) {
    const Cluster::MigVm& mv = c.migs_[static_cast<std::size_t>(m)];
    if (mv.assigned != prot.host || mv.in_transit) continue;
    if (mv.last_moved >= 0 && now - mv.last_moved < kCooldown) continue;
    const Collector::VmSample& s =
        pc.sample(mv.replica[static_cast<std::size_t>(prot.host)]);
    const std::int64_t chatter = s.lhp_delta + s.lwp_delta;
    if (s.run_delta > victim_run ||
        (s.run_delta == victim_run && chatter > victim_chatter)) {
      victim = m;
      victim_run = s.run_delta;
      victim_chatter = chatter;
    }
  }
  if (victim < 0 || victim_run <= 0) return;

  // Destination: least CPU run host-wide in the latest window, protected
  // host excluded; lowest index on ties.
  int dst = -1;
  sim::Duration dst_run = 0;
  for (int h = 0; h < c.n_hosts(); ++h) {
    if (h == prot.host) continue;
    const sim::Duration run = c.collector(h).host_run_delta();
    if (dst < 0 || run < dst_run) {
      dst = h;
      dst_run = run;
    }
  }
  if (dst < 0) return;
  c.migrate(victim, dst);
}

}  // namespace irs::cluster
