// HostNode: one simulated host assembly — an hv::Host, its VMs with guest
// kernels, attached workloads, a scheduling strategy, and (optionally) a
// per-host sampler — built on an engine the *caller* owns. core::World is
// the one-host special case (it owns the engine); cluster::Cluster composes
// N HostNodes on one shared engine.
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

struct HostNodeConfig {
  /// Host name — appears in VmId-validation error messages and (when
  /// `prefix_series` is set) in front of every sampler series.
  std::string name = "host";
  int n_pcpus = 4;
  hv::HvConfig hv;
  Strategy strategy = Strategy::kBaseline;
  /// Base seed for all randomness on this host (fully deterministic).
  std::uint64_t seed = 1;
  obs::TelemetryConfig telemetry;
  /// Prefix sampler series with "<name>/" so N hosts on one engine keep
  /// distinct series. World leaves this off — single-host series names
  /// (and their digests) are unchanged by the HostNode extraction.
  bool prefix_series = false;
};

class HostNode {
 public:
  /// The engine must outlive the node; the node registers events on it but
  /// never owns or advances it.
  HostNode(sim::Engine& eng, HostNodeConfig cfg);
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
  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] sim::Time started_at() const { return t0_; }
  [[nodiscard]] bool started() const { return started_; }
  /// Null unless cfg.telemetry.sample_period > 0 and start() has run.
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
  sim::Engine& eng_;
  std::unique_ptr<hv::Host> host_;
  std::unique_ptr<obs::Sampler> sampler_;
  std::vector<Slot> slots_;
  sim::Time t0_ = 0;
  bool started_ = false;
};

/// Advance `node`'s engine until every bounded workload on `vm` has
/// finished or `timeout` elapses; returns whether they finished. The run
/// ends through Engine::stop() from the VM kernel's task-finished hook, so
/// the clock stays at the finishing event. World and Cluster share this.
bool run_until_finished(HostNode& node, hv::VmId vm, sim::Duration timeout);

}  // namespace irs::core
