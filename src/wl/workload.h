// Workload base class: a named bundle of tasks + behaviours + sync
// primitives that can be instantiated into a guest kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/guest/guest_kernel.h"
#include "src/sync/sync_context.h"
#include "src/wl/spec.h"

namespace irs::wl {

class Serving;

class Workload {
 public:
  explicit Workload(std::string name) : name_(std::move(name)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Create synchronisation primitives, behaviours, and tasks inside `k`.
  /// Called exactly once, before GuestKernel::start().
  virtual void instantiate(guest::GuestKernel& k) = 0;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// The request recorder of a server workload (jbb, ab, the front-end;
  /// see wl/serving.h). Null for every other workload.
  [[nodiscard]] virtual Serving* serving() { return nullptr; }

  /// All tasks have finished (bounded workloads; endless ones never do).
  [[nodiscard]] bool finished() const {
    if (tasks_.empty()) return false;
    for (const guest::Task* t : tasks_) {
      if (!t->finished()) return false;
    }
    return true;
  }

  /// Monotone work counter (phases / items / transactions completed).
  /// The throughput of endless background workloads is progress()/time.
  [[nodiscard]] double progress() const {
    return static_cast<double>(work_);
  }

  [[nodiscard]] const std::vector<guest::Task*>& tasks() const {
    return tasks_;
  }

  /// Total useful compute completed by this workload's tasks.
  [[nodiscard]] sim::Duration useful_compute() const {
    sim::Duration total = 0;
    for (const guest::Task* t : tasks_) total += t->stats.compute_done;
    return total;
  }

  /// Latest finish time across tasks (-1 if any still running).
  [[nodiscard]] sim::Time makespan_end() const {
    sim::Time end = 0;
    for (const guest::Task* t : tasks_) {
      if (t->stats.finished_at < 0) return -1;
      end = std::max(end, t->stats.finished_at);
    }
    return end;
  }

 protected:
  Workload(Workload&&) = default;

  /// Units of work completed, bumped by the behaviours (through their
  /// shape) and by the serving recorder.
  std::uint64_t work_ = 0;

  std::string name_;
  std::vector<guest::Task*> tasks_;
  std::unique_ptr<sync::SyncContext> sync_;
  std::vector<std::unique_ptr<guest::Behavior>> behaviors_;
};

}  // namespace irs::wl
