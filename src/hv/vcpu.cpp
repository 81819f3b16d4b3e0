#include "src/hv/vcpu.h"

#include <algorithm>
#include <cmath>

namespace irs::hv {

Vcpu::Vcpu(VcpuId id, Vm* vm, int idx_in_vm)
    : id_(id), vm_(vm), idx_(idx_in_vm) {}

void Vcpu::set_state(VcpuState s, sim::Time now) {
  (void)load_avg(now);  // fold the ending interval into the load average
  acc_[static_cast<int>(state_)] += now - state_since_;
  state_since_ = now;
  state_ = s;
}

double Vcpu::load_avg(sim::Time now) const {
  const sim::Duration wall = now - load_sampled_;
  if (wall > 0) {
    const double inst = state_ == VcpuState::kRunning ? 1.0 : 0.0;
    const double tau = static_cast<double>(sim::milliseconds(100));
    const double w = 1.0 - std::exp(-static_cast<double>(wall) / tau);
    load_avg_ = w * inst + (1.0 - w) * load_avg_;
    load_sampled_ = now;
  }
  return load_avg_;
}

bool Vcpu::allowed_on(PcpuId p) const {
  if (affinity_.empty()) return true;
  return std::find(affinity_.begin(), affinity_.end(), p) != affinity_.end();
}

void Vcpu::add_credits(std::int32_t c, std::int32_t cap) {
  credits_ = std::clamp(credits_ + c, -cap, cap);
}

void Vcpu::refresh_prio() {
  prio_ = credits_ > 0 ? CreditPrio::kUnder : CreditPrio::kOver;
}

RunstateInfo Vcpu::runstate(sim::Time now) const {
  RunstateInfo info;
  info.state = state_;
  info.state_entered = state_since_;
  info.time_running = time_running(now);
  info.time_runnable = time_runnable(now);
  info.time_blocked = time_blocked(now);
  return info;
}

sim::Duration Vcpu::time_running(sim::Time now) const {
  auto t = acc_[static_cast<int>(VcpuState::kRunning)];
  if (state_ == VcpuState::kRunning) t += now - state_since_;
  return t;
}

sim::Duration Vcpu::time_runnable(sim::Time now) const {
  auto t = acc_[static_cast<int>(VcpuState::kRunnable)];
  if (state_ == VcpuState::kRunnable) t += now - state_since_;
  return t;
}

sim::Duration Vcpu::time_blocked(sim::Time now) const {
  auto t = acc_[static_cast<int>(VcpuState::kBlocked)];
  if (state_ == VcpuState::kBlocked) t += now - state_since_;
  return t;
}

}  // namespace irs::hv
