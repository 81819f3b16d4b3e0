// The CPU-hog interference micro-benchmark (paper §5.1): n compute-bound
// tasks with no synchronisation and near-zero memory footprint that never
// finish.
#pragma once

#include "src/wl/behavior.h"
#include "src/wl/workload.h"

namespace irs::wl {

class HogWorkload final : public Workload {
 public:
  /// A non-null `gate` gates every task (see HogBehavior): cluster live
  /// migration gives each replica of a migratable hog VM its own gate (see
  /// src/cluster/cluster.h). `gate` must outlive the workload (the cluster
  /// owns it).
  explicit HogWorkload(int n_hogs, const bool* gate = nullptr)
      : Workload("cpu-hog"), n_hogs_(n_hogs), gate_(gate) {}

  void instantiate(guest::GuestKernel& k) override;

 private:
  int n_hogs_;
  const bool* gate_;
};

}  // namespace irs::wl
