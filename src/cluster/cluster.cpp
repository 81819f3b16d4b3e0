#include "src/cluster/cluster.h"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace irs::cluster {

Cluster::Cluster(ClusterConfig cfg) : cfg_(cfg), eng_(cfg.queue) {
  if (cfg_.n_hosts < 1) {
    throw std::invalid_argument("ClusterConfig.n_hosts must be >= 1");
  }
  ledger_.n_hosts = static_cast<std::uint32_t>(cfg_.n_hosts);
  ledger_.policy = static_cast<std::uint32_t>(cfg_.policy);
  ledger_.hosts.resize(static_cast<std::size_t>(cfg_.n_hosts));
  fixed_per_host_.assign(static_cast<std::size_t>(cfg_.n_hosts), 0);
  for (int h = 0; h < cfg_.n_hosts; ++h) {
    core::HostNodeConfig nc = cfg_;
    nc.seed += static_cast<std::uint64_t>(h);
    const std::string name = "host" + std::to_string(h);
    // N hosts share one engine and one sampler namespace: prefix series
    // with the host name so "hv/steal_ns" stays unambiguous.
    nodes_.push_back(std::make_unique<core::HostNode>(eng_, std::move(nc), name,
                                                      name + "/"));
    collectors_.push_back(std::make_unique<Collector>(
        eng_, *nodes_.back(), &ledger_.hosts[static_cast<std::size_t>(h)]));
  }
  // Engine-level trace diagnostics go to host 0's ring (one ring per
  // engine; per-host rings still capture their own host's records).
  if (cfg_.trace_capacity > 0) {
    eng_.set_trace(&nodes_.front()->host().trace());
  }
  sched_ = std::make_unique<Scheduler>(*this, cfg_.policy, cfg_.seed);
}

Cluster::~Cluster() = default;

core::HostNode& Cluster::node(int host) {
  if (host < 0 || host >= n_hosts()) {
    throw std::out_of_range("cluster: host " + std::to_string(host) +
                            " out of range (cluster has " +
                            std::to_string(n_hosts()) + " hosts)");
  }
  return *nodes_[static_cast<std::size_t>(host)];
}

Collector& Cluster::collector(int host) {
  static_cast<void>(node(host));  // range check
  return *collectors_[static_cast<std::size_t>(host)];
}

CvmId Cluster::add_vm(int host, const hv::VmConfig& vm_cfg, bool irs_capable,
                      const guest::GuestConfig& guest_cfg) {
  assert(!started_);
  core::HostNode& n = node(host);
  const hv::VmId id = n.add_vm(vm_cfg, irs_capable, guest_cfg);
  sched_->note_fixed(host, vm_cfg.n_vcpus);
  fixed_per_host_[static_cast<std::size_t>(host)] += 1;
  ledger_.vms += 1;
  ledger_.hosts[static_cast<std::size_t>(host)].placed += 1;
  return CvmId{host, id};
}

void Cluster::set_protected(CvmId vm) {
  static_cast<void>(node(vm.host));  // range check
  protected_ = vm;
}

int Cluster::add_migratable_hog(const std::string& name, int n_vcpus,
                                int n_hogs) {
  assert(!started_);
  const int home = sched_->place(n_vcpus);
  MigVm mv;
  mv.name = name;
  mv.assigned = home;
  for (int h = 0; h < n_hosts(); ++h) {
    mv.gate.push_back(std::make_unique<bool>(h == home));
    hv::VmConfig vc;
    vc.name = name;
    vc.n_vcpus = n_vcpus;
    const hv::VmId id = node(h).add_vm(vc, /*irs_capable=*/false);
    node(h).attach(CvmId{h, id}.vm, std::make_unique<wl::HogWorkload>(
                                        n_hogs, mv.gate.back().get()));
    mv.replica.push_back(id);
  }
  ledger_.vms += 1;
  ledger_.migratable += 1;
  ledger_.hosts[static_cast<std::size_t>(home)].placed += 1;
  migs_.push_back(std::move(mv));
  return static_cast<int>(migs_.size()) - 1;
}

void Cluster::start() {
  assert(!started_);
  started_ = true;
  for (auto& n : nodes_) n->start();
  for (auto& c : collectors_) c->start();
  sched_->start();
}

void Cluster::run_for(sim::Duration d) {
  assert(started_);
  eng_.run_until(eng_.now() + d);
}

bool Cluster::run_until_finished(CvmId vm, sim::Duration timeout) {
  assert(started_);
  return node(vm.host).run_until_finished(vm.vm, timeout);
}

int Cluster::assigned_host(int mig) const {
  return migs_.at(static_cast<std::size_t>(mig)).assigned;
}

void Cluster::migrate(int mig, int dst_host) {
  MigVm& mv = migs_[static_cast<std::size_t>(mig)];
  const int src = mv.assigned;
  if (src == dst_host || mv.in_transit) return;

  // Brownout starts now: the source replica's tasks park at their next
  // burst boundary.
  *mv.gate[static_cast<std::size_t>(src)] = false;
  mv.assigned = dst_host;
  mv.in_transit = true;
  mv.last_moved = eng_.now();

  ledger_.migrations += 1;
  ledger_.downtime_total += kMigrationDowntime;
  ledger_.hosts[static_cast<std::size_t>(src)].migr_out += 1;
  ledger_.hosts[static_cast<std::size_t>(dst_host)].migr_in += 1;

  const int dst = dst_host;
  eng_.schedule(
      kMigrationDowntime,
      [this, mig, dst]() {
        MigVm& m = migs_[static_cast<std::size_t>(mig)];
        m.in_transit = false;
        *m.gate[static_cast<std::size_t>(dst)] = true;
        core::HostNode& n = *nodes_[static_cast<std::size_t>(dst)];
        const hv::VmId id = m.replica[static_cast<std::size_t>(dst)];
        wl::Workload& w = n.workload(id);
        guest::GuestKernel& k = n.kernel(id);
        for (guest::Task* t : w.tasks()) {
          // Transient warmup: the first burst on the destination stretches
          // by the cache/working-set refill cost.
          t->cache_debt += kMigrationWarmupDebt;
          k.wake_task(*t);
        }
      });
}

obs::ClusterResult Cluster::result() const {
  obs::ClusterResult r = ledger_;
  for (int h = 0; h < n_hosts(); ++h) {
    r.hosts[static_cast<std::size_t>(h)].active_end =
        static_cast<std::uint64_t>(fixed_per_host_[static_cast<std::size_t>(h)]);
  }
  for (const MigVm& mv : migs_) {
    r.hosts[static_cast<std::size_t>(mv.assigned)].active_end += 1;
    if (mv.in_transit) r.in_transit_end += 1;
  }
  return r;
}

}  // namespace irs::cluster
