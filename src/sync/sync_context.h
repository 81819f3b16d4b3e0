// Owning container for the synchronisation primitives one workload uses.
//
// Behaviors hold references into this context; the context outlives all
// tasks of the workload. Created lazily so workload constructors stay
// declarative ("I need 1 barrier and 2 mutexes").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/guest/sched_api.h"
#include "src/sync/barrier.h"
#include "src/sync/mutex.h"
#include "src/sync/pipe.h"
#include "src/sync/spinlock.h"
#include "src/sync/work_pool.h"

namespace irs::sync {

class SyncContext {
 public:
  explicit SyncContext(guest::SchedApi& api) : api_(api) {}

  Mutex& make_mutex(std::string name = "mutex") {
    mutexes_.push_back(std::make_unique<Mutex>(api_, std::move(name)));
    return *mutexes_.back();
  }
  SpinLock& make_spinlock(std::string name = "spin") {
    spins_.push_back(std::make_unique<SpinLock>(api_, std::move(name)));
    return *spins_.back();
  }
  Barrier& make_barrier(int parties, BarrierKind kind = BarrierKind::kBlocking,
                        std::string name = "barrier") {
    barriers_.push_back(
        std::make_unique<Barrier>(api_, parties, kind, std::move(name)));
    return *barriers_.back();
  }
  Pipe& make_pipe(int capacity, std::string name = "pipe") {
    pipes_.push_back(std::make_unique<Pipe>(api_, capacity, std::move(name)));
    return *pipes_.back();
  }
  WorkPool& make_pool() {
    pools_.push_back(std::make_unique<WorkPool>());
    return *pools_.back();
  }

 private:
  guest::SchedApi& api_;
  std::vector<std::unique_ptr<Mutex>> mutexes_;
  std::vector<std::unique_ptr<SpinLock>> spins_;
  std::vector<std::unique_ptr<Barrier>> barriers_;
  std::vector<std::unique_ptr<Pipe>> pipes_;
  std::vector<std::unique_ptr<WorkPool>> pools_;
};

}  // namespace irs::sync
