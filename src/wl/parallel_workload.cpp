#include "src/wl/parallel_workload.h"

#include <cassert>

namespace irs::wl {

ParallelWorkload::ParallelWorkload(AppSpec spec, int n_threads, bool endless)
    : Workload(spec.name), spec_(std::move(spec)), n_threads_(n_threads),
      endless_(endless) {
  assert(n_threads > 0);
}

void ParallelWorkload::instantiate(guest::GuestKernel& k) {
  sync_ = std::make_unique<sync::SyncContext>(k);
  k.set_memory_intensity(spec_.memory_intensity);
  switch (spec_.sync) {
    case SyncType::kPipeline:
      instantiate_pipeline(k);
      break;
    case SyncType::kWorkSteal:
      instantiate_worksteal(k);
      break;
    default:
      instantiate_phased(k);
      break;
  }
}

void ParallelWorkload::instantiate_phased(guest::GuestKernel& k) {
  phased_ = std::make_unique<PhasedShape>(
      make_phased_shape(spec_, n_threads_, endless_, &work_));
  switch (spec_.sync) {
    case SyncType::kBarrierBlocking:
      phased_->barrier = &sync_->make_barrier(
          n_threads_, sync::BarrierKind::kBlocking, spec_.name + ".bar");
      break;
    case SyncType::kBarrierSpinning:
      phased_->barrier = &sync_->make_barrier(
          n_threads_, sync::BarrierKind::kSpinning, spec_.name + ".bar");
      break;
    case SyncType::kMutex:
      phased_->mutex = &sync_->make_mutex(spec_.name + ".mtx");
      break;
    case SyncType::kMutexBarrier:
      phased_->mutex = &sync_->make_mutex(spec_.name + ".mtx");
      phased_->barrier = &sync_->make_barrier(
          n_threads_, sync::BarrierKind::kBlocking, spec_.name + ".bar");
      break;
    default:
      assert(false);
  }
  for (int i = 0; i < n_threads_; ++i) {
    behaviors_.push_back(std::make_unique<PhasedBehavior>(*phased_));
    tasks_.push_back(&k.create_task(spec_.name + "." + std::to_string(i),
                                    *behaviors_.back()));
  }
}

void ParallelWorkload::instantiate_pipeline(guest::GuestKernel& k) {
  pipeline_ = std::make_unique<PipelineShape>();
  pipeline_->spec = spec_;
  pipeline_->work = &work_;
  pipeline_->item_cost = std::max<sim::Duration>(1, spec_.granularity);
  pipeline_->items_total = static_cast<int>(
      spec_.work_per_thread * n_threads_ / pipeline_->item_cost);
  const int stages = spec_.stages;
  for (int s = 0; s + 1 < stages; ++s) {
    pipeline_->pipes.push_back(&sync_->make_pipe(
        16, spec_.name + ".pipe" + std::to_string(s)));
  }
  pipeline_->stage_live.assign(static_cast<std::size_t>(stages), n_threads_);
  for (int s = 0; s < stages; ++s) {
    for (int i = 0; i < n_threads_; ++i) {
      behaviors_.push_back(std::make_unique<PipelineBehavior>(*pipeline_, s));
      tasks_.push_back(&k.create_task(
          spec_.name + ".s" + std::to_string(s) + "." + std::to_string(i),
          *behaviors_.back()));
    }
  }
}

void ParallelWorkload::instantiate_worksteal(guest::GuestKernel& k) {
  worksteal_ = std::make_unique<WorkStealShape>();
  worksteal_->spec = spec_;
  worksteal_->work = &work_;
  worksteal_->pool = &sync_->make_pool();
  const sim::Duration chunk = std::max<sim::Duration>(1, spec_.granularity);
  const int chunks =
      static_cast<int>(spec_.work_per_thread * n_threads_ / chunk);
  worksteal_->pool->add_n(chunks, chunk);
  for (int i = 0; i < n_threads_; ++i) {
    behaviors_.push_back(std::make_unique<WorkStealBehavior>(*worksteal_));
    tasks_.push_back(&k.create_task(spec_.name + "." + std::to_string(i),
                                    *behaviors_.back()));
  }
}

}  // namespace irs::wl
