#include "src/core/host_node.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace irs::core {

HostNode::HostNode(sim::Engine& eng, HostNodeConfig cfg, std::string name,
                   std::string series_prefix)
    : cfg_(std::move(cfg)),
      name_(std::move(name)),
      series_prefix_(std::move(series_prefix)),
      eng_(eng) {
  host_ = std::make_unique<hv::Host>(eng_, cfg_.hv, cfg_.n_pcpus);
  if (cfg_.trace_capacity > 0) {
    host_->trace().set_capacity(cfg_.trace_capacity);
  }
  switch (cfg_.strategy) {
    case Strategy::kBaseline:
      break;
    case Strategy::kPle:
      host_->enable_ple();
      break;
    case Strategy::kRelaxedCo:
      host_->enable_relaxed_co();
      break;
    case Strategy::kIrs:
      host_->enable_irs();
      break;
    case Strategy::kIrsPull:
      // Pull-only variant (paper §6): no scheduler activations — the guest
      // rescues "running" tasks from preempted vCPUs when a CPU idles.
      break;
    case Strategy::kDelayPreempt:
      host_->enable_delay_preempt();
      break;
  }
}

HostNode::~HostNode() = default;

HostNode::Slot& HostNode::slot(hv::VmId vm, const char* what) {
  const auto& self = *this;
  return const_cast<Slot&>(self.slot(vm, what));
}

const HostNode::Slot& HostNode::slot(hv::VmId vm, const char* what) const {
  const auto i = static_cast<std::size_t>(vm);
  if (vm < 0 || i >= slots_.size()) {
    throw std::out_of_range(
        std::string(what) + ": VmId " + std::to_string(vm) +
        " is not a VM of host '" + name_ + "' (" +
        std::to_string(slots_.size()) +
        " VMs; ids are host-local — a foreign or stale id?)");
  }
  return slots_[i];
}

wl::Workload& HostNode::workload(hv::VmId vm, std::size_t i) {
  Slot& s = slot(vm, "workload");
  if (i >= s.workloads.size()) {
    throw std::out_of_range(
        "workload: VM " + std::to_string(vm) + " on host '" + name_ +
        "' has " + std::to_string(s.workloads.size()) +
        " workloads, index " + std::to_string(i) + " requested");
  }
  return *s.workloads[i];
}

hv::VmId HostNode::add_vm(const hv::VmConfig& vm_cfg, bool irs_capable,
                          guest::GuestConfig guest_cfg) {
  assert(!started_);
  hv::Vm& vm = host_->add_vm(vm_cfg);
  guest_cfg.irs_enabled = cfg_.strategy == Strategy::kIrs && irs_capable;
  if (cfg_.strategy == Strategy::kIrsPull && irs_capable) {
    guest_cfg.irs_pull = true;
  }
  // Paravirtual lock hints apply to every guest under the delay-preemption
  // baseline (it is a guest-kernel feature, not per-VM opt-in).
  if (cfg_.strategy == Strategy::kDelayPreempt) {
    guest_cfg.paravirt_lock_hints = true;
  }
  Slot slot;
  slot.vm = &vm;
  hv::Host* host = host_.get();
  hv::Vm* vmp = &vm;
  slot.kernel = std::make_unique<guest::GuestKernel>(
      eng_, guest_cfg, vm_cfg.n_vcpus, host_->hypercalls(vm), host_->trace(),
      [host, vmp](int cpu, bool spinning) {
        host->note_spinning(*vmp, cpu, spinning);
      },
      [host, vmp](int cpu, bool holds) {
        host->note_lock_hint(*vmp, cpu, holds);
      });
  vm.set_guest(slot.kernel.get());
  if (!vm.vcpus().empty()) {
    // Guest trace records carry global vCPU ids so every timeline consumer
    // shares one id space with the hv records.
    slot.kernel->set_trace_vcpu_base(vm.vcpus().front()->id());
  }
  slot.kernel->seed(cfg_.seed * 1000003ULL +
                    static_cast<std::uint64_t>(vm.id()) + 1);
  slots_.push_back(std::move(slot));
  return vm.id();
}

wl::Workload& HostNode::attach(hv::VmId vm, std::unique_ptr<wl::Workload> w) {
  assert(!started_);
  Slot& s = slot(vm, "attach");
  s.workloads.push_back(std::move(w));
  return *s.workloads.back();
}

void HostNode::start() {
  assert(!started_);
  started_ = true;
  t0_ = eng_.now();
  host_->start();
  for (auto& slot : slots_) {
    for (auto& w : slot.workloads) w->instantiate(*slot.kernel);
    slot.kernel->start();
  }
  if (cfg_.sample_period > 0) arm_sampler();
}

void HostNode::arm_sampler() {
  sampler_ = std::make_unique<obs::Sampler>(eng_, cfg_.sample_period);
  const std::string& p = series_prefix_;
  hv::Host* host = host_.get();
  sim::Engine* eng = &eng_;
  // An event counter's track is the rate view of the plain field.
  const auto count = [](const std::uint64_t* c) {
    return [c]() { return static_cast<std::int64_t>(*c); };
  };
  const hv::SchedStats& ss = host_->sched_stats();
  const hv::StrategyStats& st = host_->strategy_stats();

  // Host-wide tracks.
  sampler_->add_gauge(p + "hv/runnable_vcpus", [host]() {
    return static_cast<std::int64_t>(host->runnable_vcpus());
  });
  sampler_->add_rate(p + "hv/steal_ns", [host, eng]() {
    return static_cast<std::int64_t>(host->total_steal(eng->now()));
  });
  sampler_->add_rate(p + "hv/preemptions", count(&ss.preemptions));
  sampler_->add_rate(p + "hv/lhp", count(&ss.lhp_events));
  sampler_->add_rate(p + "hv/lwp", count(&ss.lwp_events));
  sampler_->add_rate(p + "hv/sa_sent", count(&st.sa_sent));
  sampler_->add_rate(p + "hv/sa_acked", count(&st.sa_acked));

  // Per-vCPU tracks: steal rate from runstate accounting, SA deliveries
  // from the vCPU's own count.
  for (int vm_i = 0; vm_i < host_->n_vms(); ++vm_i) {
    hv::Vm& vm = host_->vm(vm_i);
    const auto& vs = vm.vcpus();
    for (std::size_t idx = 0; idx < vs.size(); ++idx) {
      hv::Vcpu* v = vs[idx];
      const std::string base =
          p + "hv/" + vm.name() + "/vcpu" + std::to_string(idx);
      sampler_->add_rate(base + "/steal_ns", [v, eng]() {
        return static_cast<std::int64_t>(v->time_runnable(eng->now()));
      });
      sampler_->add_rate(base + "/sa_sent", count(&v->sa_sent));
    }
  }

  // Per-VM guest run-queue depth.
  for (auto& slot : slots_) {
    guest::GuestKernel* k = slot.kernel.get();
    sampler_->add_gauge(p + "guest/" + slot.vm->name() + "/runnable_tasks",
                        [k]() {
                          return static_cast<std::int64_t>(k->runnable_tasks());
                        });
  }
  sampler_->start();
}

bool HostNode::workloads_finished(const Slot& s) const {
  if (s.workloads.empty()) return true;
  for (const auto& w : s.workloads) {
    if (!w->finished()) return false;
  }
  return true;
}

bool HostNode::workloads_finished(hv::VmId vm) const {
  return workloads_finished(slot(vm, "workloads_finished"));
}

bool HostNode::run_until_finished(hv::VmId vm, sim::Duration timeout) {
  assert(started_);
  if (workloads_finished(vm)) return true;
  guest::GuestKernel& k = kernel(vm);
  // Only a task finishing can flip workloads_finished, so this hook sees
  // the moment it becomes true.
  k.set_on_task_finished([&](guest::Task&) {
    if (workloads_finished(vm)) eng_.stop();
  });
  eng_.run_until(eng_.now() + timeout);
  k.set_on_task_finished(nullptr);
  return workloads_finished(vm);
}

sim::Duration HostNode::fair_share(const Slot& s,
                                   sim::Duration elapsed) const {
  // Pinned topology: each vCPU is entitled to an equal split of its pCPU
  // among the vCPUs pinned there. Unpinned: weight-proportional host share
  // capped by the VM's own parallelism.
  bool all_pinned = true;
  for (const hv::Vcpu* v : s.vm->vcpus()) {
    if (v->affinity().size() != 1) all_pinned = false;
  }
  if (all_pinned) {
    // Count how many vCPUs (of any VM) are pinned to each pCPU.
    std::vector<int> pinned(static_cast<std::size_t>(host_->n_pcpus()), 0);
    for (int vm_i = 0; vm_i < host_->n_vms(); ++vm_i) {
      for (const hv::Vcpu* v : host_->vm(vm_i).vcpus()) {
        if (v->affinity().size() == 1) {
          ++pinned[static_cast<std::size_t>(v->affinity()[0])];
        }
      }
    }
    sim::Duration share = 0;
    for (const hv::Vcpu* v : s.vm->vcpus()) {
      const int n = pinned[static_cast<std::size_t>(v->affinity()[0])];
      share += elapsed / std::max(1, n);
    }
    return share;
  }
  std::int64_t total_weight = 0;
  for (int vm_i = 0; vm_i < host_->n_vms(); ++vm_i) {
    total_weight += host_->vm(vm_i).weight();
  }
  const double host_capacity =
      static_cast<double>(elapsed) * host_->n_pcpus();
  double share = host_capacity * s.vm->weight() /
                 static_cast<double>(std::max<std::int64_t>(1, total_weight));
  const double cap = static_cast<double>(elapsed) * s.vm->n_vcpus();
  if (share > cap) share = cap;
  return static_cast<sim::Duration>(share);
}

VmMetrics HostNode::vm_metrics(hv::VmId vm) const {
  const Slot& slot = this->slot(vm, "vm_metrics");
  VmMetrics m;
  m.vm_name = slot.vm->name();
  m.elapsed = eng_.now() - t0_;
  for (const hv::Vcpu* v : slot.vm->vcpus()) {
    m.cpu_time += v->time_running(eng_.now());
    m.steal_time += v->time_runnable(eng_.now());
  }
  m.fair_share = fair_share(slot, m.elapsed);
  for (const auto& w : slot.workloads) {
    m.useful_compute += w->useful_compute();
    m.progress += w->progress();
  }
  m.workload_finished = workloads_finished(slot);
  if (m.workload_finished && !slot.workloads.empty()) {
    sim::Time end = 0;
    for (const auto& w : slot.workloads) {
      end = std::max(end, w->makespan_end());
    }
    m.makespan = end - t0_;
  }
  return m;
}

}  // namespace irs::core
