// CFS-style per-CPU runqueue: ready tasks ordered by vruntime.
// The current task is NOT in the runqueue (Linux convention) — this is
// load-bearing for the paper's second semantic gap: a task "running" on a
// preempted vCPU is not in any runqueue, so pull-based balancing can never
// take it.
//
// Layout: one contiguous array of {vruntime key, task} entries in reverse
// run order, so the next task to run is the back element. Run order is
// smallest key first and, among equal keys, first queued first (Linux's
// rbtree, like a std::multimap, inserts at the upper bound of the equal
// range). The key is the task's vruntime at enqueue; a task whose vruntime
// changes while queued keeps its place. Queues run ~100 tasks deep on the
// server workloads (DESIGN §9.3), where a binary search plus one memmove
// beats a node tree's pointer walks.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/guest/task.h"
#include "src/sim/time.h"

namespace irs::guest {

class CfsRunqueue {
 public:
  void enqueue(Task& t);
  /// Remove a specific task; returns false if it was not queued.
  bool remove(Task& t);

  /// Task with the smallest vruntime (next to run), or nullptr.
  [[nodiscard]] Task* leftmost() const {
    return queue_.empty() ? nullptr : queue_.back().task;
  }
  /// Remove and return the leftmost task, or nullptr.
  Task* pop_leftmost() {
    if (queue_.empty()) return nullptr;
    Task* t = queue_.back().task;
    queue_.pop_back();
    return t;
  }
  /// Task with the largest vruntime — the coldest candidate, preferred by
  /// load balancing pulls; the last queued among equals. Returns nullptr if
  /// empty.
  [[nodiscard]] Task* hottest_to_steal() const {
    return queue_.empty() ? nullptr : queue_.front().task;
  }
  /// The first task in run order displaced by IRS whose home is `cpu`
  /// (nullptr if none) — the balancer sends these back first (paper §3.3).
  [[nodiscard]] Task* tagged_for(int cpu) const;

  [[nodiscard]] std::size_t nr_ready() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

  /// Monotonic floor used to normalise sleepers' vruntime on wake-up.
  [[nodiscard]] sim::Duration min_vruntime() const { return min_vruntime_; }
  /// Advance the floor (called as the current task accrues vruntime).
  void advance_min_vruntime(sim::Duration candidate);

 private:
  struct Entry {
    sim::Duration key;  // vruntime at enqueue
    Task* task;
  };

  std::vector<Entry> queue_;  // reverse run order: back() runs next
  sim::Duration min_vruntime_ = 0;
};

}  // namespace irs::guest
