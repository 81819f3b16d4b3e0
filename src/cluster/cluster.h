// Cluster: N simulated hosts — one virtual datacenter — inside one
// sim::Engine. Each host is a full core::HostNode (hv::Host + guests +
// workloads) and the layer adds the two cluster components the related
// dynamic-VM-scheduler repo splits the problem into: a per-host
// cluster::Collector sampling LHP/LWP charge-back and steal on a cadence,
// and a central cluster::Scheduler that places VMs at admission and
// live-migrates them between hosts under a pluggable Policy.
//
// Live migration model. An hv::Vm cannot change hosts (its vCPUs belong to
// one credit scheduler), so a *migratable* logical VM is realised as one
// replica VM on every host, all sharing per-replica boolean gates: the
// gated hog tasks (wl::GatedHogWorkload) burn CPU while their gate is open
// and park off-CPU otherwise. Exactly one gate per logical VM is open at
// any time. A migration at decision time t closes the source gate (tasks
// park at the next burst boundary — the pre-copy brownout), flips the
// assignment, and schedules the arrival at t + downtime: the destination
// gate opens, every destination task is woken and charged `warmup_debt` of
// cache_debt (stretching its first burst — the transient warmup penalty).
// The ledger (obs::ClusterResult) counts placements, migrations per host,
// downtime, and the collectors' observations; its conservation identities
// are listed in src/obs/cluster_stats.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/collector.h"
#include "src/cluster/scheduler.h"
#include "src/core/host_node.h"
#include "src/core/world.h"
#include "src/obs/cluster_stats.h"
#include "src/sim/engine.h"
#include "src/wl/hog.h"

namespace irs::cluster {

/// Cluster-scoped VM identity: host-local VmIds repeat across hosts, so
/// every cross-host API takes the pair.
struct CvmId {
  int host = -1;
  hv::VmId vm = -1;
  bool operator==(const CvmId&) const = default;
};

/// The inherited host shape is every host's (the homogeneous-rack case),
/// except that host h derives seed + h so replicas on different hosts draw
/// independent streams.
struct ClusterConfig : core::WorldConfig {
  int n_hosts = 2;
  Policy policy = Policy::kIrs;
  /// Collector sampling cadence (per host).
  sim::Duration collect_period = sim::milliseconds(10);
  /// Scheduler decision cadence (kIrs only).
  sim::Duration decide_period = sim::milliseconds(30);
  MigrationCost migration;
  /// Fraction of a collector window the protected VM must spend stolen
  /// before the kIrs loop evicts a co-tenant.
  double burn_frac = 0.1;
  /// Minimum spacing between migrations of one VM.
  sim::Duration cooldown = sim::milliseconds(90);
};

class Cluster {
 public:
  /// Throws std::invalid_argument when `n_hosts` < 1 or `collect_period`
  /// or `decide_period` is not positive.
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Add a fixed (non-migratable) VM on an explicit host — the foreground
  /// VM in fig_cluster. Same contract as HostNode::add_vm.
  CvmId add_vm(int host, const hv::VmConfig& vm_cfg, bool irs_capable,
               guest::GuestConfig guest_cfg = {});

  /// Attach a workload to a fixed VM.
  wl::Workload& attach(CvmId vm, std::unique_ptr<wl::Workload> w);

  /// Mark the VM whose SLO budget the kIrs policy defends (its host's
  /// collector window drives eviction decisions).
  void set_protected(CvmId vm);

  /// Add a migratable hog VM: the scheduler's admission policy picks the
  /// initial host; replicas are created on every host. Returns the
  /// logical-VM index (the id space of assigned_host()).
  int add_migratable_hog(const std::string& name, int n_vcpus, int n_hogs,
                         sim::Duration burst = sim::milliseconds(1));

  /// Start every host, collector, and the scheduler. Call once.
  void start();

  /// Advance simulated time by `d`.
  void run_for(sim::Duration d);

  /// Run until every bounded workload on `vm` finishes or `timeout`
  /// elapses; true when finished.
  bool run_until_finished(CvmId vm, sim::Duration timeout);

  /// Snapshot the ledger (placements, migrations, downtime, collector
  /// observations, end-of-run assignment).
  [[nodiscard]] obs::ClusterResult result() const;

  // --- accessors ---
  [[nodiscard]] sim::Engine& engine() { return eng_; }
  [[nodiscard]] int n_hosts() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] core::HostNode& node(int host);
  [[nodiscard]] Collector& collector(int host);
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] guest::GuestKernel& kernel(CvmId vm) {
    return node(vm.host).kernel(vm.vm);
  }
  [[nodiscard]] int n_migratable() const {
    return static_cast<int>(migs_.size());
  }
  /// Current host assignment of a migratable VM (flips at the decision,
  /// before the downtime elapses).
  [[nodiscard]] int assigned_host(int mig) const;
  [[nodiscard]] CvmId protected_vm() const { return protected_; }

 private:
  friend class Scheduler;

  /// One migratable logical VM and its per-host replicas.
  struct MigVm {
    std::string name;
    int assigned = 0;
    bool in_transit = false;       // arrival event still pending
    sim::Time last_moved = -1;     // cooldown anchor (-1: never)
    std::vector<hv::VmId> replica;            // per host, host-local id
    std::vector<std::unique_ptr<bool>> gate;  // per host (stable address)
  };

  /// Execute one live migration (called by the Scheduler's decision loop).
  void migrate(int mig, int dst_host);

  ClusterConfig cfg_;
  sim::Engine eng_;
  std::vector<std::unique_ptr<core::HostNode>> nodes_;
  std::vector<std::unique_ptr<Collector>> collectors_;
  std::unique_ptr<Scheduler> sched_;
  std::vector<MigVm> migs_;
  std::vector<int> fixed_per_host_;  // fixed-VM count per host
  CvmId protected_{};
  obs::ClusterResult ledger_;
  bool started_ = false;
};

}  // namespace irs::cluster
