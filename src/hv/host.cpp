#include "src/hv/host.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/hv/delay_preempt.h"
#include "src/hv/event_channel.h"
#include "src/hv/ple.h"
#include "src/hv/relaxed_co.h"
#include "src/hv/sa_sender.h"

namespace irs::hv {

/// Per-VM hypercall adapter: maps VM-local vCPU indices onto global vCPUs
/// and forwards to the scheduler.
class Host::VmHypercalls final : public Hypercalls {
 public:
  VmHypercalls(Host& host, Vm& vm, EventChannel& evtchn)
      : host_(host), vm_(vm), evtchn_(evtchn) {}

  void sched_block(int vcpu) override {
    host_.sched().block(vm_.vcpu(vcpu));
  }

  void sched_yield(int vcpu) override {
    host_.sched().yield(vm_.vcpu(vcpu));
  }

  [[nodiscard]] RunstateInfo vcpu_runstate(int vcpu) const override {
    return vm_.vcpu(vcpu).runstate(host_.eng_.now());
  }

  void vcpu_kick(int vcpu) override { evtchn_.kick(vm_.vcpu(vcpu)); }

 private:
  Host& host_;
  Vm& vm_;
  EventChannel& evtchn_;
};

namespace {

/// Checked in every build: throws std::invalid_argument naming `field`
/// unless `ok`.
void require(bool ok, const char* field, const char* want, std::int64_t got) {
  if (ok) return;
  throw std::invalid_argument(std::string("Host: HvConfig.") + field +
                              " must be " + want + " (got " +
                              std::to_string(got) + ")");
}

}  // namespace

Host::Host(sim::Engine& eng, HvConfig cfg, int n_pcpus) : eng_(eng), cfg_(cfg) {
  // add_vm places unpinned vCPUs round-robin over the pCPUs.
  if (n_pcpus < 1) {
    throw std::invalid_argument("Host: n_pcpus must be >= 1 (got " +
                                std::to_string(n_pcpus) + ")");
  }
  // A period that is not positive re-arms its event at the same instant
  // forever, so the clock never moves. A cap, window or threshold that is
  // not positive quietly turns its strategy off (an SA ack cap or a
  // Delay-Preempt cap of 0 runs Baseline), and a credit amount that is not
  // positive inverts or stops the accounting. A cost may be 0 (none), never
  // negative.
  const std::pair<std::int64_t, const char*> positive[] = {
      {cfg_.time_slice, "time_slice"},
      {cfg_.tick_period, "tick_period"},
      {cfg_.accounting_period, "accounting_period"},
      {cfg_.credits_per_tick, "credits_per_tick"},
      {cfg_.credit_cap, "credit_cap"},
      {cfg_.sa_ack_cap, "sa_ack_cap"},
      {cfg_.ple_window, "ple_window"},
      {cfg_.delay_preempt_cap, "delay_preempt_cap"},
      {cfg_.co_skew_threshold, "co_skew_threshold"},
      {cfg_.co_stop_duration, "co_stop_duration"},
  };
  for (const auto& [got, field] : positive) require(got > 0, field, "> 0", got);
  const std::pair<std::int64_t, const char*> non_negative[] = {
      {cfg_.vcpu_switch_cost, "vcpu_switch_cost"},
      {cfg_.ple_exit_cost, "ple_exit_cost"},
  };
  for (const auto& [got, field] : non_negative) {
    require(got >= 0, field, ">= 0", got);
  }
  pcpus_.reserve(static_cast<std::size_t>(n_pcpus));
  for (int i = 0; i < n_pcpus; ++i) pcpus_.emplace_back(i);
  sched_ = std::make_unique<CreditScheduler>(eng_, cfg_, pcpus_, vms_,
                                             trace_);
  evtchn_ = std::make_unique<EventChannel>(*sched_);
}

Host::~Host() = default;

Vm& Host::add_vm(const VmConfig& vm_cfg) {
  // Validated before any state changes, in every build: a VM without
  // vCPUs divides by zero in the guest, and a pin past the last pCPU
  // would index the scheduler's per-pCPU tables out of bounds.
  if (vm_cfg.n_vcpus < 1) {
    throw std::invalid_argument("VM '" + vm_cfg.name +
                                "': n_vcpus must be >= 1 (got " +
                                std::to_string(vm_cfg.n_vcpus) + ")");
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
  hypercalls_.push_back(std::make_unique<VmHypercalls>(*this, vm, *evtchn_));
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
  delay_ = std::make_unique<DelayPreemptHook>(eng_, cfg_, *sched_, sstats_);
  sched_->set_preempt_hook(delay_.get());
}

void Host::enable_ple() {
  ple_ = std::make_unique<PleMonitor>(eng_, cfg_, *sched_, pcpus_, sstats_,
                                      trace_);
  for (auto& p : pcpus_) p.set_ple(ple_.get());
}

void Host::enable_relaxed_co() {
  relaxed_co_ = std::make_unique<RelaxedCoMonitor>(eng_, cfg_, *sched_,
                                                   pcpus_, vms_, sstats_,
                                                   trace_);
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
  Vcpu& v = vm.vcpu(vcpu_idx);
  if (delay_) {
    delay_->on_lock_hint(v, holds_lock);
  } else {
    v.lock_hint = holds_lock;
  }
}

}  // namespace irs::hv
