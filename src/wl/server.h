// Multi-threaded server workload models (paper §5.3).
//
// * JbbWorkload — SPECjbb2005-like: `warehouses` worker threads, each a
//   closed loop of transactions with a short shared critical section every
//   few transactions; measures throughput and per-transaction latency.
// * AbWorkload — Apache-bench-like: many concurrent connection threads
//   (far more than vCPUs), each a closed loop of short requests with a
//   small think time; measures throughput and tail latency.
//
// Both record every request through their wl::Serving (wl/serving.h).
#pragma once

#include <memory>

#include "src/wl/behavior.h"
#include "src/wl/serving.h"
#include "src/wl/workload.h"

namespace irs::wl {

/// Mean SPECjbb transaction compute.
inline constexpr sim::Duration kTxnMean = sim::microseconds(400);
/// Mean think time between an ab connection's requests.
inline constexpr sim::Duration kThinkMean = sim::milliseconds(2);

struct ServerShape {
  sim::Time end_time = 0;
  sim::Duration cs_len = 0;           // jbb only
  int cs_every = 0;                   // jbb: lock every N transactions
  sync::Mutex* mutex = nullptr;       // jbb shared structure lock
  /// When set, the critical section takes this ticket spinlock instead of
  /// `mutex`: waiters busy-wait on-CPU, so a preempted holder (or a
  /// preempted next-in-line waiter) freezes the whole convoy — the paper's
  /// LHP/LWP pathology, which blocking-mutex waiters largely sidestep by
  /// yielding their vCPU.
  sync::SpinLock* spin = nullptr;
  Serving* serving = nullptr;
};

class JbbWorkerBehavior final : public guest::Behavior {
 public:
  explicit JbbWorkerBehavior(ServerShape& shape) : shape_(shape) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  ServerShape& shape_;
  int step_ = 0;
  int txn_count_ = 0;
  sim::Time txn_start_ = 0;
};

class AbWorkerBehavior final : public guest::Behavior {
 public:
  explicit AbWorkerBehavior(ServerShape& shape) : shape_(shape) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  ServerShape& shape_;
  int step_ = 0;
  sim::Time arrival_ = 0;
};

class JbbWorkload final : public Workload {
 public:
  /// `cs_len`/`cs_every` shape the shared-structure critical section (hold
  /// time, lock every Nth transaction). Defaults match the historical
  /// 80 us / every-2nd shape; forensics fixtures crank them up — and flip
  /// `cs_spin` so the section takes a ticket spinlock whose waiters spin
  /// on-CPU — to make lock-holder/waiter preemption the dominant latency
  /// cause.
  JbbWorkload(int warehouses, sim::Duration run_for,
              sim::Duration cs_len = sim::microseconds(80), int cs_every = 2,
              bool cs_spin = false);
  void instantiate(guest::GuestKernel& k) override;
  [[nodiscard]] Serving* serving() override { return &serving_; }

 private:
  int warehouses_;
  sim::Duration cs_len_;
  int cs_every_;
  bool cs_spin_;
  Serving serving_;
  std::unique_ptr<ServerShape> shape_;
};

class AbWorkload final : public Workload {
 public:
  AbWorkload(int connections, sim::Duration run_for);
  void instantiate(guest::GuestKernel& k) override;
  [[nodiscard]] Serving* serving() override { return &serving_; }

 private:
  int connections_;
  Serving serving_;
  std::unique_ptr<ServerShape> shape_;
};

}  // namespace irs::wl
