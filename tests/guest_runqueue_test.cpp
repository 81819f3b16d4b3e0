// CfsRunqueue against a std::multimap reference runqueue: the order
// the guest scheduler sees (next to run, steal candidate, tagged task)
// must match operation for operation, equal vruntimes and stale keys
// included.
#include "src/guest/cfs_runqueue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/rng.h"

namespace irs::guest {
namespace {

/// The reference: a multimap keyed by vruntime at enqueue. emplace inserts
/// at the upper bound of the equal range, so equal keys run FIFO.
class MultimapRunqueue {
 public:
  void enqueue(Task& t) {
    by_vruntime_.emplace(t.vruntime, &t);
    min_vruntime_ = std::max(min_vruntime_, leftmost()->vruntime);
  }
  bool remove(Task& t) {
    auto [lo, hi] = by_vruntime_.equal_range(t.vruntime);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == &t) {
        by_vruntime_.erase(it);
        return true;
      }
    }
    for (auto it = by_vruntime_.begin(); it != by_vruntime_.end(); ++it) {
      if (it->second == &t) {
        by_vruntime_.erase(it);
        return true;
      }
    }
    return false;
  }
  [[nodiscard]] Task* leftmost() const {
    return by_vruntime_.empty() ? nullptr : by_vruntime_.begin()->second;
  }
  Task* pop_leftmost() {
    if (by_vruntime_.empty()) return nullptr;
    Task* t = by_vruntime_.begin()->second;
    by_vruntime_.erase(by_vruntime_.begin());
    return t;
  }
  [[nodiscard]] Task* hottest_to_steal() const {
    return by_vruntime_.empty() ? nullptr : by_vruntime_.rbegin()->second;
  }
  [[nodiscard]] Task* tagged_for(int cpu) const {
    for (const auto& [vr, t] : by_vruntime_) {
      if (t->migrating_tag && t->irs_home == cpu) return t;
    }
    return nullptr;
  }
  [[nodiscard]] std::size_t nr_ready() const { return by_vruntime_.size(); }
  [[nodiscard]] sim::Duration min_vruntime() const { return min_vruntime_; }
  void advance_min_vruntime(sim::Duration c) {
    min_vruntime_ = std::max(min_vruntime_, c);
  }

 private:
  std::multimap<sim::Duration, Task*> by_vruntime_;
  sim::Duration min_vruntime_ = 0;
};

constexpr int kCpus = 4;

void expect_same(const CfsRunqueue& rq, const MultimapRunqueue& ref,
                 int step) {
  ASSERT_EQ(rq.nr_ready(), ref.nr_ready()) << "step " << step;
  ASSERT_EQ(rq.empty(), ref.nr_ready() == 0) << "step " << step;
  ASSERT_EQ(rq.leftmost(), ref.leftmost()) << "step " << step;
  ASSERT_EQ(rq.hottest_to_steal(), ref.hottest_to_steal()) << "step " << step;
  for (int cpu = kNoCpu; cpu < kCpus; ++cpu) {
    ASSERT_EQ(rq.tagged_for(cpu), ref.tagged_for(cpu))
        << "step " << step << " cpu " << cpu;
  }
  ASSERT_EQ(rq.min_vruntime(), ref.min_vruntime()) << "step " << step;
}

TEST(CfsRunqueue, MatchesTheMultimapOracleOnARandomScript) {
  constexpr int kTasks = 64;
  constexpr int kSteps = 40'000;
  // Eight distinct vruntimes for 64 tasks: most keys are shared.
  constexpr std::int64_t kKeys = 8;
  std::vector<std::unique_ptr<Task>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(std::make_unique<Task>(i, "t" + std::to_string(i),
                                           nullptr, sim::Rng(i)));
  }
  std::vector<bool> queued(kTasks, false);
  CfsRunqueue rq;
  MultimapRunqueue ref;
  sim::Rng rng(24);
  const auto key = [&rng] {
    return static_cast<std::int64_t>(rng.next_below(kKeys)) * 1000;
  };
  const auto pick = [&](bool want_queued) -> Task* {
    std::vector<int> ids;
    for (int i = 0; i < kTasks; ++i) {
      if (queued[static_cast<std::size_t>(i)] == want_queued) ids.push_back(i);
    }
    if (ids.empty()) return nullptr;
    return tasks[static_cast<std::size_t>(
                     ids[rng.next_below(ids.size())])]
        .get();
  };
  int fallback_removes = 0;
  for (int step = 0; step < kSteps; ++step) {
    const auto op = rng.next_below(8);
    if (op <= 2) {  // enqueue, weighted so queues grow deep
      if (Task* t = pick(false)) {
        t->vruntime = key();
        rq.enqueue(*t);
        ref.enqueue(*t);
        queued[static_cast<std::size_t>(t->id())] = true;
      }
    } else if (op == 3) {  // remove a queued task
      if (Task* t = pick(true)) {
        ASSERT_TRUE(rq.remove(*t)) << "step " << step;
        ASSERT_TRUE(ref.remove(*t));
        queued[static_cast<std::size_t>(t->id())] = false;
      }
    } else if (op == 4) {  // remove an absent task
      if (Task* t = pick(false)) {
        ASSERT_FALSE(rq.remove(*t)) << "step " << step;
        ASSERT_FALSE(ref.remove(*t));
      }
    } else if (op == 5) {  // vruntime changed while queued: a stale key
      if (Task* t = pick(true)) {
        const sim::Duration old = t->vruntime;
        t->vruntime = key() + static_cast<sim::Duration>(rng.next_below(2));
        if (rng.next_below(2) == 0) {  // else it stays under its old key
          ASSERT_TRUE(rq.remove(*t)) << "step " << step;
          ASSERT_TRUE(ref.remove(*t));
          queued[static_cast<std::size_t>(t->id())] = false;
          fallback_removes += t->vruntime != old ? 1 : 0;
        }
      }
    } else if (op == 6) {
      Task* t = rq.pop_leftmost();
      ASSERT_EQ(t, ref.pop_leftmost()) << "step " << step;
      if (t != nullptr) queued[static_cast<std::size_t>(t->id())] = false;
    } else {  // retag a task, queued or not; or advance the floor
      Task* t = tasks[static_cast<std::size_t>(rng.next_below(kTasks))].get();
      t->migrating_tag = rng.next_below(2) == 0;
      t->irs_home = static_cast<int>(rng.next_below(kCpus + 1)) - 1;
      if (rng.next_below(4) == 0) {
        const sim::Duration c = key();
        rq.advance_min_vruntime(c);
        ref.advance_min_vruntime(c);
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(rq, ref, step));
  }
  EXPECT_GT(fallback_removes, 100);  // the fallback scan really ran
}

}  // namespace
}  // namespace irs::guest
