// Workload model descriptors.
//
// Each benchmark from the paper's evaluation (PARSEC, NPB, servers) is
// modelled by a synchronisation *shape* — type, granularity, critical-
// section fraction — which is what determines its LHP/LWP behaviour. See
// DESIGN.md §1 for the substitution argument and §5 for calibration.
#pragma once

#include <cstdint>
#include <string>

#include "src/sim/time.h"

namespace irs::wl {

/// Synchronisation style of a parallel application.
enum class SyncType : std::uint8_t {
  kBarrierBlocking,  // pthread_barrier-like group sync (PARSEC)
  kBarrierSpinning,  // OpenMP OMP_WAIT_POLICY=active (NPB spinning)
  kMutex,            // blocking point-to-point critical sections
  kMutexBarrier,     // locks inside barrier phases (fluidanimate-like)
  kPipeline,         // staged producer/consumer (dedup, ferret)
  kWorkSteal,        // user-level load balancing (raytrace)
};

/// Parameters of one modelled application.
struct AppSpec {
  std::string name;
  SyncType sync = SyncType::kBarrierBlocking;
  /// Useful CPU work per thread for one full run (scaled by the runner).
  sim::Duration work_per_thread = sim::milliseconds(1500);
  /// Compute between consecutive synchronisation points.
  sim::Duration granularity = sim::milliseconds(4);
  /// Fraction of each round's compute spent inside the critical section
  /// (mutex-style types only).
  double cs_fraction = 0.1;
  /// Relative jitter on compute bursts (models data-dependent imbalance).
  double jitter = 0.15;
  /// Scales the cache-refill penalty on migration (1.0 = default).
  double memory_intensity = 1.0;
  /// Pipeline types: number of stages, each run by n_threads workers;
  /// kWorkSteal: chunks per thread.
  int stages = 4;
};

}  // namespace irs::wl
