// Name-based workload factory used by the experiment runner, examples, and
// benchmarks.
#pragma once

#include <memory>
#include <string>

#include "src/wl/workload.h"

namespace irs::wl {

/// Options for make_workload.
struct WorkloadOptions {
  /// Threads, >= 1 (matches n_vcpus in the paper): workers, warehouses or
  /// hogs; pipelines run this many per stage, and ab always runs its
  /// kAbConnections.
  int n_threads = 4;
  /// NPB wait policy: spinning (OMP_WAIT_POLICY=active) or blocking.
  bool npb_spinning = true;
  /// Multiply the spec's per-thread work (shrink/grow runs).
  double work_scale = 1.0;
  /// Server workloads: how long to serve.
  sim::Duration server_duration = sim::seconds(3);
  /// SPECjbb: run Fig. 8(d)'s spin shape, a longer critical section every
  /// transaction under a ticket spinlock (waiters spin on-CPU) instead of
  /// the blocking mutex — the shape that reproduces the paper's
  /// lock-holder/waiter preemption pathology (see wl/server.h).
  bool jbb_cs_spin = false;
  /// Open-loop front-end ("frontend") knobs; see src/wl/frontend.h.
  /// Arrival process: "poisson", "mmpp", or "diurnal".
  std::string fe_arrival = "poisson";
  /// Base arrival rate in requests per simulated second (0 = model
  /// default, 1800 — just under the 4-worker service capacity; < 0 is an
  /// error).
  double fe_rate_hz = 0.0;
  /// Overload policy: "drop" (tail-drop), "admit", or "shed".
  std::string fe_overload = "drop";
  /// Accept-queue bound (0 = model default, 64; < 0 is an error).
  int fe_queue_cap = 0;
  bool fe_keepalive = true;
};

/// Create a workload by name. Accepts every PARSEC name, every NPB name
/// ("BT".."UA"), "specjbb", "ab", "frontend", and "hog". `endless` loops a
/// PARSEC or NPB model forever (the background/interference role; the
/// servers and the hog ignore it). Throws std::invalid_argument naming the
/// bad value for n_threads < 1, an unknown name, an unknown front-end
/// arrival process or overload policy, and a negative fe_rate_hz or
/// fe_queue_cap.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opts = {},
                                        bool endless = false);

}  // namespace irs::wl
