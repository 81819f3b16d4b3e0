#include "src/hv/pcpu.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/hv/ple.h"

namespace irs::hv {

void Pcpu::set_current(Vcpu* v) {
  wake_ple();  // the running vCPU (if any) leaves Running
  current_ = v;
}

void Pcpu::wake_ple() {
  if (ple_ != nullptr && current_ != nullptr) ple_->wake(*current_);
}

void Pcpu::enqueue(Vcpu* v) {
  assert(v != nullptr);
  // Insert before the first vCPU of a strictly worse priority class so the
  // queue stays sorted best-first, FIFO within a class.
  auto it = std::find_if(runq_.begin(), runq_.end(), [&](const Vcpu* q) {
    return static_cast<int>(q->prio()) > static_cast<int>(v->prio());
  });
  runq_.insert(it, v);
  v->set_resident(id_);
  wake_ple();
}

void Pcpu::enqueue_front(Vcpu* v) {
  assert(v != nullptr);
  // Insert before the first vCPU of an equal-or-worse class: head of class.
  auto it = std::find_if(runq_.begin(), runq_.end(), [&](const Vcpu* q) {
    return static_cast<int>(q->prio()) >= static_cast<int>(v->prio());
  });
  runq_.insert(it, v);
  v->set_resident(id_);
  wake_ple();
}

bool Pcpu::remove(Vcpu* v) {
  auto it = std::find(runq_.begin(), runq_.end(), v);
  if (it == runq_.end()) return false;
  runq_.erase(it);
  return true;
}

void Pcpu::sample_util(sim::Time now) {
  const sim::Duration wall = now - last_util_sample_;
  if (wall <= 0) return;
  last_util_sample_ = now;
  // The sample treats the whole interval as busy iff someone runs at its
  // end — at 10 ms ticks against 30 ms slices that tracks closely.
  const double inst = current_ != nullptr ? 1.0 : 0.0;
  const double tau = static_cast<double>(sim::milliseconds(100));
  const double w = 1.0 - std::exp(-static_cast<double>(wall) / tau);
  util_avg_ = w * inst + (1.0 - w) * util_avg_;
}

Vcpu* Pcpu::peek_best() const {
  for (Vcpu* v : runq_) {
    if (!v->co_stopped) return v;
  }
  return nullptr;
}

Vcpu* Pcpu::pop_best() {
  for (auto it = runq_.begin(); it != runq_.end(); ++it) {
    if (!(*it)->co_stopped) {
      Vcpu* v = *it;
      runq_.erase(it);
      return v;
    }
  }
  return nullptr;
}

}  // namespace irs::hv
