// Generic parallel workload driven by an AppSpec: phase-structured,
// pipeline or work-stealing.
#pragma once

#include <memory>

#include "src/wl/behavior.h"
#include "src/wl/spec.h"
#include "src/wl/workload.h"

namespace irs::wl {

class ParallelWorkload final : public Workload {
 public:
  /// `n_threads`: worker threads (pipeline types: threads per stage).
  /// `endless`: loop forever (background / interference use).
  ParallelWorkload(AppSpec spec, int n_threads, bool endless = false);

  void instantiate(guest::GuestKernel& k) override;

  [[nodiscard]] const AppSpec& spec() const { return spec_; }
  [[nodiscard]] int n_threads() const { return n_threads_; }

 private:
  void instantiate_phased(guest::GuestKernel& k);
  void instantiate_pipeline(guest::GuestKernel& k);
  void instantiate_worksteal(guest::GuestKernel& k);

  AppSpec spec_;
  int n_threads_;
  bool endless_;
  std::unique_ptr<PhasedShape> phased_;
  std::unique_ptr<PipelineShape> pipeline_;
  std::unique_ptr<WorkStealShape> worksteal_;
};

}  // namespace irs::wl
