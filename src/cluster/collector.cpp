#include "src/cluster/collector.h"

namespace irs::cluster {

Collector::Collector(sim::Engine& eng, core::HostNode& node,
                     obs::ClusterHostLedger* ledger)
    : eng_(eng), node_(node), ledger_(ledger) {}

void Collector::start() {
  const auto n = static_cast<std::size_t>(node_.host().n_vms());
  prev_.assign(n, Totals{});
  latest_.assign(n, VmSample{});
  // Baseline snapshot so the first window measures [t0, t0+period), not
  // [time origin, t0+period).
  for (std::size_t i = 0; i < n; ++i) prev_[i] = totals(static_cast<int>(i));
  eng_.schedule(kCollectPeriod, [this]() { collect(); });
}

Collector::Totals Collector::totals(int vm_i) const {
  Totals t;
  const sim::Time now = eng_.now();
  for (const hv::Vcpu* v : node_.host().vm(vm_i).vcpus()) {
    t.run += v->time_running(now);
    t.steal += v->time_runnable(now);
    // The scheduler counts LHP/LWP on the preempted vCPU as well as in the
    // host total, which makes per-VM charge-back a plain sum over the VM's
    // vCPUs.
    t.lhp += static_cast<std::int64_t>(v->lhp);
    t.lwp += static_cast<std::int64_t>(v->lwp);
  }
  return t;
}

void Collector::collect() {
  const auto n = static_cast<std::size_t>(node_.host().n_vms());
  sim::Duration host_steal = 0;
  std::int64_t host_lhp = 0;
  std::int64_t host_lwp = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Totals t = totals(static_cast<int>(i));
    const Totals& p = prev_[i];
    VmSample& s = latest_[i];
    s.run_delta = t.run - p.run;
    s.steal_delta = t.steal - p.steal;
    s.lhp_delta = t.lhp - p.lhp;
    s.lwp_delta = t.lwp - p.lwp;
    host_steal += s.steal_delta;
    host_lhp += s.lhp_delta;
    host_lwp += s.lwp_delta;
    prev_[i] = t;
  }
  if (ledger_ != nullptr) {
    ledger_->samples += 1;
    ledger_->steal += host_steal;
    ledger_->lhp += static_cast<std::uint64_t>(host_lhp);
    ledger_->lwp += static_cast<std::uint64_t>(host_lwp);
  }
  eng_.schedule(kCollectPeriod, [this]() { collect(); });
}

const Collector::VmSample& Collector::sample(hv::VmId vm) const {
  const auto i = static_cast<std::size_t>(vm);
  if (vm < 0 || i >= latest_.size()) return zero_;
  return latest_[i];
}

sim::Duration Collector::host_run_delta() const {
  sim::Duration total = 0;
  for (const VmSample& s : latest_) total += s.run_delta;
  return total;
}

}  // namespace irs::cluster
