// World: the public facade that assembles a simulated host, VMs with guest
// kernels, workloads, and a scheduling strategy — the library's main entry
// point (see examples/quickstart.cpp). Since the cluster layer landed it is
// the one-host special case of core::HostNode: World owns the engine and
// delegates the per-host assembly; cluster::Cluster composes N HostNodes on
// one shared engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/host_node.h"
#include "src/core/metrics.h"
#include "src/core/strategy.h"
#include "src/guest/guest_kernel.h"
#include "src/hv/host.h"
#include "src/obs/sampler.h"
#include "src/obs/telemetry.h"
#include "src/sim/engine.h"
#include "src/wl/workload.h"

namespace irs::core {

/// Inherits the shared telemetry knobs (trace_capacity, sample_period)
/// from obs::TelemetryConfig — one
/// definition shared with ScenarioConfig and HostNodeConfig; existing
/// `cfg.trace_capacity = ...` call sites are unchanged.
struct WorldConfig : obs::TelemetryConfig {
  int n_pcpus = 4;
  hv::HvConfig hv;
  Strategy strategy = Strategy::kBaseline;
  /// Base seed for all randomness in the simulation (fully deterministic).
  std::uint64_t seed = 1;
  /// Event-queue backend for the engine. Defaults to the process-wide
  /// default (IRS_ENGINE_QUEUE or the hybrid wheel); tests override it to
  /// prove results are backend-independent within one process.
  sim::QueueKind queue = sim::default_queue_kind();
};

class World {
 public:
  explicit World(WorldConfig cfg);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Add a VM. `irs_capable` marks guests that register VIRQ_SA_UPCALL —
  /// the foreground VM in the paper's setup; it only takes effect under
  /// Strategy::kIrs. Returns the VM id.
  hv::VmId add_vm(const hv::VmConfig& vm_cfg, bool irs_capable,
                  guest::GuestConfig guest_cfg = {}) {
    return node_->add_vm(vm_cfg, irs_capable, std::move(guest_cfg));
  }

  /// Attach a workload to a VM (may be called multiple times per VM).
  wl::Workload& attach(hv::VmId vm, std::unique_ptr<wl::Workload> w) {
    return node_->attach(vm, std::move(w));
  }

  /// Instantiate workloads and start the host and guests. Call once.
  void start() { node_->start(); }

  /// Run until every bounded workload on `vm` finishes, or `timeout` of
  /// simulated time elapses. Returns true when finished.
  bool run_until_finished(hv::VmId vm, sim::Duration timeout);

  /// Advance simulated time by `d`.
  void run_for(sim::Duration d);

  /// Summarise one VM's run so far.
  [[nodiscard]] VmMetrics vm_metrics(hv::VmId vm) const {
    return node_->vm_metrics(vm);
  }

  // --- accessors ---
  [[nodiscard]] sim::Engine& engine() { return eng_; }
  [[nodiscard]] hv::Host& host() { return node_->host(); }
  [[nodiscard]] HostNode& node() { return *node_; }
  [[nodiscard]] guest::GuestKernel& kernel(hv::VmId vm) {
    return node_->kernel(vm);
  }
  [[nodiscard]] wl::Workload& workload(hv::VmId vm, std::size_t i = 0) {
    return node_->workload(vm, i);
  }
  [[nodiscard]] std::size_t n_workloads(hv::VmId vm) const {
    return node_->n_workloads(vm);
  }
  [[nodiscard]] Strategy strategy() const { return node_->strategy(); }
  [[nodiscard]] sim::Time started_at() const { return node_->started_at(); }
  /// Null unless cfg.sample_period > 0 and start() has run.
  [[nodiscard]] obs::Sampler* sampler() { return node_->sampler(); }

 private:
  sim::Engine eng_;  // constructed from cfg.queue before node_
  std::unique_ptr<HostNode> node_;
};

}  // namespace irs::core
