// Reusable behaviour building blocks for the workload catalogue.
#pragma once

#include <cstdint>
#include <memory>

#include "src/guest/action.h"
#include "src/guest/task.h"
#include "src/sync/barrier.h"
#include "src/sync/mutex.h"
#include "src/sync/pipe.h"
#include "src/sync/work_pool.h"
#include "src/wl/spec.h"

namespace irs::wl {

/// Shared state of a phase-structured parallel application (barrier and/or
/// critical-section rounds). One instance per workload.
struct PhasedShape {
  AppSpec spec;
  int n_threads = 4;
  bool endless = false;          // background workloads loop forever
  int rounds_per_phase = 1;      // critical-section rounds between barriers
  int n_phases = 0;              // per-task phase count (bounded mode)
  sim::Duration outside_len = 0; // compute outside the critical section
  sim::Duration cs_len = 0;      // compute inside the critical section
  sync::Barrier* barrier = nullptr;
  sync::Mutex* mutex = nullptr;
  /// The workload's work counter, bumped per finished phase (may be null).
  std::uint64_t* work = nullptr;
};

/// Derive round/phase structure from an AppSpec.
PhasedShape make_phased_shape(const AppSpec& spec, int n_threads,
                              bool endless, std::uint64_t* work);

/// Executes the phase structure described by a PhasedShape. Covers
/// kBarrierBlocking, kBarrierSpinning, kMutex and kMutexBarrier.
class PhasedBehavior final : public guest::Behavior {
 public:
  explicit PhasedBehavior(PhasedShape& shape) : shape_(shape) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  PhasedShape& shape_;
  int step_ = 0;
  int round_ = 0;
  int phase_ = 0;
};

/// Shared state of a pipeline-parallel application (dedup/ferret-like):
/// `stages` stages, the workload's n_threads workers each, bounded pipes
/// between consecutive stages.
struct PipelineShape {
  AppSpec spec;
  int items_total = 0;           // items flowing through the pipeline
  sim::Duration item_cost = 0;   // per-stage compute per item
  std::vector<sync::Pipe*> pipes;  // stages-1 pipes
  std::vector<int> stage_live;   // live workers per stage (for pipe close)
  int items_produced = 0;        // stage-0 generation counter
  /// The workload's work counter, bumped per item retired at the last
  /// stage (may be null).
  std::uint64_t* work = nullptr;
};

class PipelineBehavior final : public guest::Behavior {
 public:
  PipelineBehavior(PipelineShape& shape, int stage)
      : shape_(shape), stage_(stage) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  guest::Action finish_stage();

  PipelineShape& shape_;
  int stage_;
  int step_ = 0;
  bool done_ = false;
};

/// Shared state for user-level work stealing (raytrace-like).
struct WorkStealShape {
  AppSpec spec;
  sync::WorkPool* pool = nullptr;
  std::uint64_t* work = nullptr;  // bumped per chunk taken (may be null)
};

class WorkStealBehavior final : public guest::Behavior {
 public:
  explicit WorkStealBehavior(WorkStealShape& shape) : shape_(shape) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  WorkStealShape& shape_;
};

/// One CPU-hog compute burst, jittered by ±5%.
inline constexpr sim::Duration kHogBurst = sim::milliseconds(1);
/// How long a hog behind a closed gate sleeps before it re-checks the
/// gate. Migration wakes parked tasks explicitly, so it only needs to
/// exceed the run length.
inline constexpr sim::Duration kHogPark = sim::seconds(3600);

/// CPU hog: endless compute in bursts — the paper's interference
/// micro-benchmark ("CPU hogs with almost zero memory footprint"). With a
/// `gate`, the task burns CPU only while `*gate` is true and otherwise
/// parks off-CPU (Action::sleep) until woken: the replica half of cluster
/// live migration (see wl::HogWorkload and src/cluster/cluster.h).
class HogBehavior final : public guest::Behavior {
 public:
  explicit HogBehavior(const bool* gate = nullptr) : gate_(gate) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  const bool* gate_;
};

}  // namespace irs::wl
