// HostNode: one simulated host assembly — an hv::Host, its VMs with guest
// kernels, attached workloads, a scheduling strategy, and (optionally) a
// per-host sampler — built on an engine the *caller* owns. core::World is
// the one-host HostNode that owns its engine; cluster::Cluster composes N
// HostNodes on one shared engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/strategy.h"
#include "src/guest/guest_kernel.h"
#include "src/hv/host.h"
#include "src/obs/sampler.h"
#include "src/obs/telemetry.h"
#include "src/sim/engine.h"
#include "src/wl/workload.h"

namespace irs::core {

/// The host shape: every config that builds hosts (WorldConfig,
/// cluster::ClusterConfig, exp::ScenarioConfig) inherits it, and a host
/// is built from the slice. The telemetry knobs (trace_capacity,
/// sample_period) come from obs::TelemetryConfig.
struct HostNodeConfig : obs::TelemetryConfig {
  int n_pcpus = 4;
  // Beside n_pcpus, so the two 4-byte fields share one 8-byte slot.
  Strategy strategy = Strategy::kBaseline;
  hv::HvConfig hv;
  /// Base seed for all randomness on this host (fully deterministic).
  std::uint64_t seed = 1;
};

class HostNode {
 public:
  /// The engine must outlive the node; the node registers events on it but
  /// never owns or advances it. `name` appears in VmId-validation error
  /// messages; `series_prefix` goes in front of every sampler series, so N
  /// hosts on one engine keep distinct series (a lone host leaves it
  /// empty, and its series names and digests stay the single-host ones).
  HostNode(sim::Engine& eng, HostNodeConfig cfg, std::string name = "host",
           std::string series_prefix = "");
  ~HostNode();
  HostNode(const HostNode&) = delete;
  HostNode& operator=(const HostNode&) = delete;

  /// Add a VM. `irs_capable` marks guests that register VIRQ_SA_UPCALL —
  /// the foreground VM in the paper's setup; it only takes effect under
  /// Strategy::kIrs. Returns the VM id (host-local).
  hv::VmId add_vm(const hv::VmConfig& vm_cfg, bool irs_capable,
                  guest::GuestConfig guest_cfg = {});

  /// Attach a workload to a VM (may be called multiple times per VM).
  wl::Workload& attach(hv::VmId vm, std::unique_ptr<wl::Workload> w);

  /// Instantiate workloads and start the host and guests. Call once.
  void start();

  /// Advance the engine until every bounded workload on `vm` has finished
  /// or `timeout` of simulated time elapses; returns whether they
  /// finished. The run ends through Engine::stop() from the VM kernel's
  /// task-finished hook, so the clock stays at the finishing event.
  bool run_until_finished(hv::VmId vm, sim::Duration timeout);

  /// True when every bounded workload on `vm` has finished.
  [[nodiscard]] bool workloads_finished(hv::VmId vm) const;

  /// Summarise one VM's run since start().
  [[nodiscard]] VmMetrics vm_metrics(hv::VmId vm) const;

  // --- accessors ---
  [[nodiscard]] sim::Engine& engine() { return eng_; }
  [[nodiscard]] hv::Host& host() { return *host_; }
  [[nodiscard]] const hv::Host& host() const { return *host_; }
  [[nodiscard]] guest::GuestKernel& kernel(hv::VmId vm) {
    return *slot(vm, "kernel").kernel;
  }
  [[nodiscard]] wl::Workload& workload(hv::VmId vm, std::size_t i = 0);
  [[nodiscard]] std::size_t n_workloads(hv::VmId vm) const {
    return slot(vm, "n_workloads").workloads.size();
  }
  [[nodiscard]] std::size_t n_vms() const { return slots_.size(); }
  [[nodiscard]] Strategy strategy() const { return cfg_.strategy; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Time started_at() const { return t0_; }
  [[nodiscard]] bool started() const { return started_; }
  /// Null unless cfg.sample_period > 0 and start() has run.
  [[nodiscard]] obs::Sampler* sampler() { return sampler_.get(); }

 private:
  struct Slot {
    hv::Vm* vm = nullptr;
    std::unique_ptr<guest::GuestKernel> kernel;
    std::vector<std::unique_ptr<wl::Workload>> workloads;
  };

  /// Validated slot lookup: a stale or foreign VmId fails with a message
  /// naming the id, this host, and the accessor — not an opaque
  /// std::out_of_range from vector::at. Load-bearing once VMs are
  /// cluster-scoped and host-local ids stop being globally unique.
  [[nodiscard]] Slot& slot(hv::VmId vm, const char* what);
  [[nodiscard]] const Slot& slot(hv::VmId vm, const char* what) const;

  [[nodiscard]] bool workloads_finished(const Slot& s) const;
  [[nodiscard]] sim::Duration fair_share(const Slot& s,
                                         sim::Duration elapsed) const;

  void arm_sampler();

  HostNodeConfig cfg_;
  std::string name_;
  std::string series_prefix_;
  sim::Engine& eng_;
  std::unique_ptr<hv::Host> host_;
  std::unique_ptr<obs::Sampler> sampler_;
  std::vector<Slot> slots_;
  sim::Time t0_ = 0;
  bool started_ = false;
};

}  // namespace irs::core
