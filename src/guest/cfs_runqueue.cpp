#include "src/guest/cfs_runqueue.h"

#include <algorithm>
#include <iterator>

namespace irs::guest {

void CfsRunqueue::enqueue(Task& t) {
  // Keys descend towards the back. The new entry goes behind every larger
  // key and ahead of its equals: they queued first, so they run first.
  const auto pos = std::partition_point(
      queue_.begin(), queue_.end(),
      [k = t.vruntime](const Entry& e) { return e.key > k; });
  queue_.insert(pos, Entry{t.vruntime, &t});
  advance_min_vruntime(leftmost()->vruntime);
}

bool CfsRunqueue::remove(Task& t) {
  const auto is_t = [&t](const Entry& e) { return e.task == &t; };
  // The entries keyed at the task's vruntime, in run order (back to front).
  const auto [lo, hi] = std::equal_range(
      queue_.begin(), queue_.end(), Entry{t.vruntime, nullptr},
      [](const Entry& a, const Entry& b) { return a.key > b.key; });
  auto it = std::find_if(std::make_reverse_iterator(hi),
                         std::make_reverse_iterator(lo), is_t);
  if (it == std::make_reverse_iterator(lo)) {
    // The task's vruntime key may be stale if it changed while queued;
    // fall back to a scan of the whole queue (should not happen in
    // practice).
    it = std::find_if(queue_.rbegin(), queue_.rend(), is_t);
    if (it == queue_.rend()) return false;
  }
  queue_.erase(std::prev(it.base()));
  return true;
}

Task* CfsRunqueue::tagged_for(int cpu) const {
  for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
    Task* t = it->task;
    if (t->migrating_tag && t->irs_home == cpu) return t;
  }
  return nullptr;
}

void CfsRunqueue::advance_min_vruntime(sim::Duration candidate) {
  min_vruntime_ = std::max(min_vruntime_, candidate);
}

}  // namespace irs::guest
