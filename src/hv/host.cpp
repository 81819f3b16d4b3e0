#include "src/hv/host.h"

#include <stdexcept>
#include <string>

#include "src/hv/delay_preempt.h"
#include "src/hv/ple.h"
#include "src/hv/relaxed_co.h"
#include "src/hv/sa_sender.h"

namespace irs::hv {

/// Per-VM hypercall adapter: maps VM-local vCPU indices onto global vCPUs
/// and forwards to the scheduler.
class Host::VmHypercalls final : public Hypercalls {
 public:
  VmHypercalls(Host& host, Vm& vm) : host_(host), vm_(vm) {}

  void sched_block(int vcpu) override {
    host_.sched().block(vm_.vcpu(vcpu));
  }

  void sched_yield(int vcpu) override {
    host_.sched().yield(vm_.vcpu(vcpu));
  }

  [[nodiscard]] RunstateInfo vcpu_runstate(int vcpu) const override {
    return vm_.vcpu(vcpu).runstate(host_.eng_.now());
  }

  void vcpu_kick(int vcpu) override {
    Vcpu& v = vm_.vcpu(vcpu);
    if (v.state() == VcpuState::kBlocked) host_.sched().wake(v);
  }

 private:
  Host& host_;
  Vm& vm_;
};

Host::Host(sim::Engine& eng, HvConfig cfg, int n_pcpus) : eng_(eng), cfg_(cfg) {
  // add_vm places unpinned vCPUs round-robin over the pCPUs.
  if (n_pcpus < 1) {
    throw std::invalid_argument("Host: n_pcpus must be >= 1 (got " +
                                std::to_string(n_pcpus) + ")");
  }
  // An SA ack cap that is not positive quietly runs IRS as Baseline.
  if (cfg_.sa_ack_cap <= 0) {
    throw std::invalid_argument("Host: HvConfig.sa_ack_cap must be > 0 (got " +
                                std::to_string(cfg_.sa_ack_cap) + ")");
  }
  pcpus_.reserve(static_cast<std::size_t>(n_pcpus));
  for (int i = 0; i < n_pcpus; ++i) pcpus_.emplace_back(i);
  sched_ = std::make_unique<CreditScheduler>(eng_, pcpus_, vms_, trace_);
}

Host::~Host() = default;

Vm& Host::add_vm(const VmConfig& vm_cfg) {
  // Validated before any state changes, in every build: a VM without
  // vCPUs divides by zero in the guest, a weight below credit1's floor of
  // 1 mints no or negative credit and skews every fair share, and a pin
  // past the last pCPU would index the scheduler's per-pCPU tables out of
  // bounds.
  if (vm_cfg.n_vcpus < 1) {
    throw std::invalid_argument("VM '" + vm_cfg.name +
                                "': n_vcpus must be >= 1 (got " +
                                std::to_string(vm_cfg.n_vcpus) + ")");
  }
  if (vm_cfg.weight < 1) {
    throw std::invalid_argument("VM '" + vm_cfg.name +
                                "': weight must be >= 1 (got " +
                                std::to_string(vm_cfg.weight) + ")");
  }
  if (!vm_cfg.pin_map.empty()) {
    if (vm_cfg.pin_map.size() < static_cast<std::size_t>(vm_cfg.n_vcpus)) {
      throw std::invalid_argument(
          "VM '" + vm_cfg.name + "': pin_map has " +
          std::to_string(vm_cfg.pin_map.size()) + " entries but the VM has " +
          std::to_string(vm_cfg.n_vcpus) + " vCPUs");
    }
    for (int i = 0; i < vm_cfg.n_vcpus; ++i) {
      const PcpuId p = vm_cfg.pin_map[static_cast<std::size_t>(i)];
      if (p < 0 || p >= n_pcpus()) {
        throw std::invalid_argument(
            "VM '" + vm_cfg.name + "': vCPU " + std::to_string(i) +
            " pinned to pCPU " + std::to_string(p) + ", but the host has " +
            std::to_string(n_pcpus()) + " pCPUs");
      }
    }
  }
  const VmId id = static_cast<VmId>(vm_storage_.size());
  vm_storage_.push_back(std::make_unique<Vm>(id, vm_cfg));
  Vm& vm = *vm_storage_.back();
  vms_.push_back(&vm);
  for (int i = 0; i < vm_cfg.n_vcpus; ++i) {
    const VcpuId vid = static_cast<VcpuId>(vcpus_.size());
    vcpus_.push_back(std::make_unique<Vcpu>(vid, &vm, i));
    Vcpu& v = *vcpus_.back();
    if (!vm_cfg.pin_map.empty()) {
      const PcpuId p = vm_cfg.pin_map[static_cast<std::size_t>(i)];
      v.set_affinity({p});
      v.set_resident(p);
    } else {
      v.set_resident(static_cast<PcpuId>(i % n_pcpus()));
    }
    vm.attach_vcpu(&v);
  }
  hypercalls_.push_back(std::make_unique<VmHypercalls>(*this, vm));
  return vm;
}

void Host::start() {
  sched_->start();
  if (relaxed_co_) relaxed_co_->start();
}

void Host::enable_irs() {
  sa_sender_ =
      std::make_unique<SaSender>(eng_, cfg_, *sched_, sstats_, trace_);
  sched_->set_preempt_hook(sa_sender_.get());
}

void Host::enable_delay_preempt() {
  delay_ = std::make_unique<DelayPreemptHook>(eng_, *sched_, sstats_);
  sched_->set_preempt_hook(delay_.get());
}

void Host::enable_ple() {
  ple_ = std::make_unique<PleMonitor>(eng_, *sched_, pcpus_, sstats_, trace_);
  for (auto& p : pcpus_) p.set_ple(ple_.get());
}

void Host::enable_relaxed_co() {
  relaxed_co_ = std::make_unique<RelaxedCoMonitor>(eng_, *sched_, pcpus_,
                                                   vms_, sstats_, trace_);
}

int Host::runnable_vcpus() const {
  int n = 0;
  for (const auto& v : vcpus_) {
    if (v->state() == VcpuState::kRunnable) ++n;
  }
  return n;
}

sim::Duration Host::total_steal(sim::Time now) const {
  sim::Duration d = 0;
  for (const auto& v : vcpus_) d += v->time_runnable(now);
  return d;
}

Hypercalls& Host::hypercalls(Vm& vm) {
  return *hypercalls_.at(static_cast<std::size_t>(vm.id()));
}

void Host::note_spinning(Vm& vm, int vcpu_idx, bool spinning) {
  Vcpu& v = vm.vcpu(vcpu_idx);
  v.set_spinning(spinning);
  if (ple_) ple_->on_spin_signal(v, spinning);
}

void Host::note_lock_hint(Vm& vm, int vcpu_idx, bool holds_lock) {
  if (delay_) delay_->on_lock_hint(vm.vcpu(vcpu_idx), holds_lock);
}

}  // namespace irs::hv
