// EventQueue backend tests: the queue-level contract every backend must
// honour (strict {when, seq} total order, deadline-bounded pops, size()
// counting every resident entry), the hybrid wheel's boundary behaviour
// (horizon spill, cursor teleport, behind-cursor pushes), and randomized
// engine-level equivalence — the same schedule/cancel/reschedule churn
// driven through each backend must dispatch in the identical order and
// produce byte-identical trace records, with the binary heap as the
// oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/trace.h"

namespace {

using namespace irs;

constexpr sim::QueueKind kAllKinds[] = {
    sim::QueueKind::kBinaryHeap,
    sim::QueueKind::kQuadHeap,
    sim::QueueKind::kHybridWheel,
};

std::string kind_label(const ::testing::TestParamInfo<sim::QueueKind>& info) {
  return sim::make_event_queue(info.param)->name();
}

// One wheel bucket spans 2^17 ns; the wheel covers 512 buckets (~67 ms).
// The tests below use these to aim entries at specific wheel regions
// without reaching into backend internals.
constexpr sim::Time kBucketNs = 1 << 17;
constexpr sim::Time kHorizonNs = 512 * kBucketNs;

class QueueBackend : public ::testing::TestWithParam<sim::QueueKind> {
 protected:
  std::unique_ptr<sim::EventQueue> q_ = sim::make_event_queue(GetParam());
};

TEST_P(QueueBackend, ReportsItsKind) {
  EXPECT_EQ(q_->kind(), GetParam());
  EXPECT_STRNE(q_->name(), "");
}

TEST_P(QueueBackend, PopsInTotalOrderAcrossAllRegions) {
  // Entries land in every structural region a backend can have: the open
  // bucket, mid-wheel, the last in-horizon bucket, beyond the horizon, and
  // duplicate timestamps that only `seq` disambiguates.
  std::vector<sim::QEntry> entries;
  std::uint64_t seq = 0;
  for (sim::Time when : {sim::Time{1}, kBucketNs / 2, 3 * kBucketNs,
                         kHorizonNs - 1, kHorizonNs + 5, 40 * kHorizonNs,
                         sim::Time{1}, 3 * kBucketNs, kHorizonNs + 5}) {
    entries.push_back({when, seq, static_cast<std::uint32_t>(seq), 0});
    ++seq;
  }
  // Push in a scrambled order; the queue must still pop sorted.
  std::vector<sim::QEntry> scrambled = entries;
  sim::Rng rng(7);
  for (std::size_t i = scrambled.size(); i > 1; --i) {
    std::swap(scrambled[i - 1], scrambled[rng.next_below(i)]);
  }
  // `seq` must stay push-monotone per the interface contract, so renumber
  // after the shuffle (the original seq rides along in `slot`).
  for (std::size_t i = 0; i < scrambled.size(); ++i) {
    scrambled[i].seq = i;
  }
  for (const auto& e : scrambled) q_->push(e);
  EXPECT_EQ(q_->size(), entries.size());

  std::vector<sim::QEntry> popped;
  sim::QEntry e;
  while (q_->pop(&e)) popped.push_back(e);
  ASSERT_EQ(popped.size(), entries.size());
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end(),
                             [](const sim::QEntry& a, const sim::QEntry& b) {
                               return sim::entry_before(a, b);
                             }));
  EXPECT_EQ(q_->size(), 0u);
}

TEST_P(QueueBackend, PopUntilRespectsDeadline) {
  q_->push({10, 0, 0, 0});
  q_->push({kHorizonNs + 10, 1, 1, 0});
  sim::QEntry e;
  EXPECT_FALSE(q_->pop_until(9, &e));
  ASSERT_TRUE(q_->pop_until(10, &e));
  EXPECT_EQ(e.when, 10);
  EXPECT_FALSE(q_->pop_until(kHorizonNs + 9, &e));
  ASSERT_TRUE(q_->pop_until(kHorizonNs + 10, &e));
  EXPECT_EQ(e.when, kHorizonNs + 10);
  EXPECT_FALSE(q_->pop_until(sim::kTimeMax, &e));
}

TEST_P(QueueBackend, PeekDoesNotConsumeOrReorder) {
  q_->push({5, 0, 0, 0});
  q_->push({5, 1, 1, 0});
  sim::QEntry e;
  ASSERT_TRUE(q_->peek(&e));
  EXPECT_EQ(e.seq, 0u);
  ASSERT_TRUE(q_->peek(&e));
  EXPECT_EQ(e.seq, 0u);
  EXPECT_EQ(q_->size(), 2u);
  ASSERT_TRUE(q_->pop(&e));
  EXPECT_EQ(e.seq, 0u);
  ASSERT_TRUE(q_->pop(&e));
  EXPECT_EQ(e.seq, 1u);
}

TEST_P(QueueBackend, SizeCountsEveryResidentEntry) {
  for (std::uint64_t i = 0; i < 100; ++i) {
    // Alternate near-wheel and far-heap placements.
    const sim::Time when =
        (i % 2 == 0) ? static_cast<sim::Time>(i + 1) * kBucketNs / 4
                     : kHorizonNs + static_cast<sim::Time>(i) * kBucketNs;
    q_->push({when, i, static_cast<std::uint32_t>(i), 0});
    EXPECT_EQ(q_->size(), i + 1);
  }
  sim::QEntry e;
  for (std::size_t left = 100; left > 0; --left) {
    EXPECT_EQ(q_->size(), left);
    ASSERT_TRUE(q_->pop(&e));
  }
  EXPECT_EQ(q_->size(), 0u);
}

TEST_P(QueueBackend, RandomChurnMatchesBinaryHeapPopUntil) {
  // Queue-level oracle: bursts of pushes over every region (open bucket,
  // mid-wheel, just past the horizon, far spill) and deadline-bounded
  // drains. Every pop must match the binary heap's, entry for entry. The
  // churn also covers what reuses the wheel's bucket nodes hardest:
  //   * seqs pushed out of push order, as sim::Timer pushes the key it
  //     reserved at arm() time after later schedules;
  //   * buckets holding more than 64 entries;
  //   * more than 1,000 rotations of the cursor around the wheel;
  //   * idle gaps: the queue drained, then pushes far past the horizon,
  //     where the wheel teleports its cursor.
  // Each is counted below, so a change to the churn cannot silently drop
  // one.
  for (std::uint64_t seed : {11ull, 20260808ull, 0xfeedc0deull}) {
    auto oracle = sim::make_event_queue(sim::QueueKind::kBinaryHeap);
    auto dut = sim::make_event_queue(GetParam());
    sim::Rng rng(seed);
    std::uint64_t seq = 0;
    sim::Time popped_floor = 0;  // push contract: when >= last popped
    std::vector<std::uint64_t> reserved;  // seqs drawn, not yet pushed
    std::uint64_t out_of_order = 0;
    std::uint64_t dense_buckets = 0;
    std::uint64_t idle_gaps = 0;
    sim::Time walked = 0;  // floor advance by pops, not by idle gaps

    auto push = [&](sim::Time when, std::uint64_t key) {
      const sim::QEntry e{when, key, static_cast<std::uint32_t>(key & 0xffff),
                          0};
      oracle->push(e);
      dut->push(e);
    };
    // A later seq than the one an earlier reservation holds, so pushing
    // that reservation now is out of push order.
    auto push_next = [&](sim::Time when) {
      if (!reserved.empty() && rng.next_below(4) == 0) {
        const std::size_t i = rng.next_below(reserved.size());
        push(when, reserved[i]);
        reserved[i] = reserved.back();
        reserved.pop_back();
        ++out_of_order;
      } else if (rng.next_below(8) == 0) {
        reserved.push_back(seq++);  // pushed by a later round
      } else {
        push(when, seq++);
      }
    };
    // Pop up to `want` entries due by `deadline`, comparing each.
    auto drain = [&](sim::Time deadline, std::uint64_t want) {
      for (; want > 0; --want) {
        sim::QEntry expect;
        sim::QEntry got;
        const bool have = oracle->pop_until(deadline, &expect);
        ASSERT_EQ(dut->pop_until(deadline, &got), have);
        if (!have) return;
        ASSERT_EQ(got.when, expect.when);
        ASSERT_EQ(got.seq, expect.seq);
        walked += expect.when - popped_floor;
        popped_floor = expect.when;
      }
    };

    for (int round = 0; round < 3000; ++round) {
      SCOPED_TRACE(round);
      switch (rng.next_below(40)) {
        case 0: {  // idle gap: drain, then jump far past the horizon
          drain(sim::kTimeMax, UINT64_MAX);
          for (std::uint64_t key : reserved) push(popped_floor, key);
          out_of_order += reserved.size();
          reserved.clear();
          drain(sim::kTimeMax, UINT64_MAX);
          ASSERT_EQ(dut->size(), 0u);
          popped_floor += (10 + static_cast<sim::Time>(rng.next_below(100))) *
                          kHorizonNs;
          ++idle_gaps;
          break;
        }
        case 1: {  // a dense bucket a few buckets ahead of the floor
          const sim::Time base =
              (popped_floor / kBucketNs +
               2 + static_cast<sim::Time>(rng.next_below(100))) *
              kBucketNs;
          const std::uint64_t n = 65 + rng.next_below(100);
          for (std::uint64_t i = 0; i < n; ++i) {
            push_next(base + static_cast<sim::Time>(rng.next_below(kBucketNs)));
          }
          ++dense_buckets;
          break;
        }
        default: break;
      }
      const std::uint64_t n = 1 + rng.next_below(30);
      for (std::uint64_t i = 0; i < n; ++i) {
        sim::Time when = popped_floor;
        switch (rng.next_below(4)) {
          case 0: when += static_cast<sim::Time>(rng.next_below(64)); break;
          case 1:
            when += static_cast<sim::Time>(rng.next_below(kBucketNs));
            break;
          case 2:
            when += static_cast<sim::Time>(rng.next_below(kHorizonNs));
            break;
          default:  // past the horizon: spill territory
            when += kHorizonNs +
                    static_cast<sim::Time>(rng.next_below(40 * kHorizonNs));
            break;
        }
        push_next(when);
      }
      drain(popped_floor +
                static_cast<sim::Time>(rng.next_below(4 * kHorizonNs)),
            rng.next_below(80));
      ASSERT_EQ(oracle->size(), dut->size());
    }
    EXPECT_GT(out_of_order, 1000u) << "seed " << seed;
    EXPECT_GT(dense_buckets, 30u) << "seed " << seed;
    EXPECT_GT(idle_gaps, 30u) << "seed " << seed;
    EXPECT_GT(walked / kHorizonNs, 1000) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, QueueBackend,
                         ::testing::ValuesIn(kAllKinds), kind_label);

// ---------------------------------------------------------------------------
// Hybrid-wheel boundary behaviour
// ---------------------------------------------------------------------------

TEST(WheelQueue, FarFutureEntriesSpillToHeapAndMergeBack) {
  auto q = sim::make_event_queue(sim::QueueKind::kHybridWheel);
  // Far first (heap), then near (wheel): pops must interleave correctly
  // as the cursor crosses from wheel territory into spilled territory.
  q->push({kHorizonNs + 2 * kBucketNs, 0, 0, 0});
  q->push({2 * kBucketNs, 1, 1, 0});
  q->push({kHorizonNs + kBucketNs, 2, 2, 0});
  q->push({kBucketNs, 3, 3, 0});
  sim::QEntry e;
  std::vector<std::uint32_t> order;
  while (q->pop(&e)) order.push_back(e.slot);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{3, 1, 2, 0}));
}

TEST(WheelQueue, CursorTeleportsAcrossIdleGaps) {
  auto q = sim::make_event_queue(sim::QueueKind::kHybridWheel);
  sim::QEntry e;
  // Consume one near event, then push far beyond the horizon while the
  // wheel is empty: the cursor teleports instead of sweeping thousands of
  // empty buckets, and the event is wheel-resident (popped, not spilled).
  q->push({kBucketNs, 0, 0, 0});
  ASSERT_TRUE(q->pop(&e));
  const sim::Time far = 1000 * kHorizonNs + 3 * kBucketNs;
  q->push({far, 1, 1, 0});
  q->push({far + kBucketNs, 2, 2, 0});
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 1u);
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 2u);
  EXPECT_FALSE(q->pop(&e));
}

TEST(WheelQueue, PushBehindOpenBucketStillPopsInOrder) {
  auto q = sim::make_event_queue(sim::QueueKind::kHybridWheel);
  // Open a bucket mid-wheel, then push a same-bucket timestamp *behind*
  // the cursor (the engine clamps `when` to now(), so this models a
  // zero-delay event scheduled from inside a dispatch): it must not be
  // lost, and must pop after already-sorted due entries per seq order.
  q->push({5 * kBucketNs + 10, 0, 0, 0});
  q->push({5 * kBucketNs + 20, 1, 1, 0});
  sim::QEntry e;
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 0u);
  q->push({5 * kBucketNs + 20, 2, 2, 0});  // same when, later seq, open bucket
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 1u);
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 2u);
}

TEST(WheelQueue, SameTimestampFifoAcrossWheelHeapBoundary) {
  auto q = sim::make_event_queue(sim::QueueKind::kHybridWheel);
  // Identical `when` just past the horizon: while near events keep the
  // wheel populated, the far push spills to the heap; once the cursor has
  // advanced enough, a second push of the very same `when` is
  // wheel-resident. The seq tie-break must hold across the two structures.
  const sim::Time when = kHorizonNs + kBucketNs + 7;
  q->push({kBucketNs, 0, 0, 0});      // wheel-resident anchors
  q->push({2 * kBucketNs, 1, 1, 0});
  q->push({when, 2, 2, 0});           // beyond horizon -> heap spill
  sim::QEntry e;
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 0u);
  ASSERT_TRUE(q->pop(&e));  // cursor now deep enough for `when` to fit
  EXPECT_EQ(e.slot, 1u);
  q->push({when, 3, 3, 0});           // same when, now within horizon
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 2u);  // heap entry first: same when, lower seq
  ASSERT_TRUE(q->pop(&e));
  EXPECT_EQ(e.slot, 3u);
  EXPECT_FALSE(q->pop(&e));
}

// ---------------------------------------------------------------------------
// Engine-level: shells stay queued until dispatch skips them
// ---------------------------------------------------------------------------

class EngineBackend : public ::testing::TestWithParam<sim::QueueKind> {};

TEST_P(EngineBackend, WheelResidentShellsAreSkipped) {
  // All events sit 100 µs apart — inside the wheel horizon, so on the
  // hybrid backend every one is wheel-resident. Cancelling 70 of 128
  // leaves 70 shells in the queue; dispatch must skip each of them, run
  // the 58 live events, and leave nothing behind.
  sim::Engine eng(GetParam());
  std::vector<sim::EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 128; ++i) {
    handles.push_back(
        eng.schedule((i + 1) * sim::microseconds(100), [&] { ++fired; }));
  }
  EXPECT_EQ(eng.queued(), 128u);
  for (int i = 0; i < 70; ++i) handles[i].cancel();
  EXPECT_EQ(eng.queued(), 128u);  // 58 live events and 70 shells
  eng.run();
  EXPECT_EQ(fired, 58);
  EXPECT_EQ(eng.queued(), 0u);
}

TEST_P(EngineBackend, SpillResidentShellsAreSkipped) {
  // The far-future mirror of the wheel case above: a near anchor keeps
  // the wheel from teleporting its cursor, so on the hybrid backend every
  // other event sits past the horizon in the spill heap. Shells there
  // count in size() and are skipped the same way.
  sim::Engine eng(GetParam());
  std::vector<sim::EventHandle> handles;
  int fired = 0;
  eng.schedule(sim::microseconds(1), [&] { ++fired; });
  for (int i = 0; i < 128; ++i) {
    handles.push_back(eng.schedule(
        2 * kHorizonNs + (i + 1) * sim::milliseconds(1), [&] { ++fired; }));
  }
  EXPECT_EQ(eng.queued(), 129u);
  for (int i = 0; i < 70; ++i) handles[i].cancel();
  EXPECT_EQ(eng.queued(), 129u);  // 59 live events and 70 shells
  eng.run();
  EXPECT_EQ(fired, 59);
  EXPECT_EQ(eng.queued(), 0u);
}

TEST_P(EngineBackend, ShellOfAReusedSlotNeverRunsTheNewEvent) {
  // Cancelling frees the slot at once while the entry stays queued, so
  // the next schedule reuses the slot under a shell that still names it;
  // only the generation tells them apart. Each shell must be skipped and
  // each new event run once, at its own time, whether it is due before
  // or after the shell, on the wheel or past its horizon.
  sim::Engine eng(GetParam());
  std::vector<std::pair<sim::Time, int>> fired;
  auto note = [&](int id) { fired.push_back({eng.now(), id}); };
  const sim::Time far = 2 * kHorizonNs;
  eng.schedule(1, [&note] { note(0); });  // near anchor: no teleport
  sim::EventHandle near_old = eng.schedule(5 * kBucketNs, [&note] {
    note(1);
  });
  sim::EventHandle far_old = eng.schedule(far, [&note] { note(2); });
  ASSERT_EQ(eng.pool_slots(), 3u);
  near_old.cancel();
  far_old.cancel();
  sim::EventHandle later = eng.schedule(far + kBucketNs, [&note] {
    note(3);
  });
  sim::EventHandle earlier = eng.schedule(2 * kBucketNs, [&note] {
    note(4);
  });
  later.cancel();  // a second shell for one slot
  sim::EventHandle last = eng.schedule(far + 2 * kBucketNs, [&note] {
    note(5);
  });
  EXPECT_EQ(eng.pool_slots(), 3u);  // every new event took a freed slot
  EXPECT_EQ(eng.queued(), 6u);      // three live events and three shells
  EXPECT_FALSE(near_old.pending());
  EXPECT_FALSE(far_old.pending());
  EXPECT_FALSE(later.pending());
  EXPECT_TRUE(earlier.pending());
  EXPECT_TRUE(last.pending());
  eng.run();
  EXPECT_EQ(fired, (std::vector<std::pair<sim::Time, int>>{
                       {1, 0}, {2 * kBucketNs, 4}, {far + 2 * kBucketNs, 5}}));
  EXPECT_EQ(eng.dispatched(), 3u);
  EXPECT_EQ(eng.queued(), 0u);
}

TEST_P(EngineBackend, CallbackSchedulesFireInGlobalOrder) {
  // A callback schedules between already-queued events (t=1500, between
  // 1000 and 2000) and at an already-passed time (clamped to now). Both
  // must interleave exactly where {when, seq} places them.
  sim::Engine eng(GetParam());
  std::vector<std::pair<sim::Time, int>> fired;
  auto note = [&](int id) { fired.push_back({eng.now(), id}); };
  for (int i = 0; i < 64; ++i) {
    eng.schedule((i + 1) * 1000, [&note, i] { note(i); });
  }
  eng.schedule(1000, [&] {
    note(100);
    eng.schedule(500, [&note] { note(101); });  // t=1500
    eng.schedule(-5, [&note] { note(102); });   // clamped to t=1000
    eng.schedule(0, [&note] { note(103); });    // t=1000, later seq
  });
  eng.run();
  ASSERT_EQ(fired.size(), 68u);
  // t=1000: event 0 (seq order), then the extra callback, then its two
  // same-timestamp children; t=1500 lands between events 0 and 1.
  EXPECT_EQ(fired[0], (std::pair<sim::Time, int>{1000, 0}));
  EXPECT_EQ(fired[1], (std::pair<sim::Time, int>{1000, 100}));
  EXPECT_EQ(fired[2], (std::pair<sim::Time, int>{1000, 102}));
  EXPECT_EQ(fired[3], (std::pair<sim::Time, int>{1000, 103}));
  EXPECT_EQ(fired[4], (std::pair<sim::Time, int>{1500, 101}));
  EXPECT_EQ(fired[5], (std::pair<sim::Time, int>{2000, 1}));
  for (int i = 2; i < 64; ++i) {
    EXPECT_EQ(fired[4 + i], (std::pair<sim::Time, int>{(i + 1) * 1000, i}));
  }
}

TEST_P(EngineBackend, BudgetStopLeavesTheRestQueued) {
  sim::Engine eng(GetParam());
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    eng.schedule(i + 1, [&fired, i] { fired.push_back(i); });
  }
  const auto out = eng.run(30);
  EXPECT_EQ(out.dispatched, 30u);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_EQ(eng.queued(), 70u);  // nothing lost
  const auto rest = eng.run();
  EXPECT_EQ(rest.dispatched, 70u);
  EXPECT_FALSE(rest.budget_exhausted);
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fired[i], i);
}

TEST_P(EngineBackend, CancelFromCallbackIsHonoured) {
  // The first callback cancels queued events: they must not fire, and the
  // queue must drain once the loop has skipped their shells.
  sim::Engine eng(GetParam());
  std::vector<int> fired;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 40; ++i) {
    handles.push_back(
        eng.schedule(i + 1, [&fired, i] { fired.push_back(i); }));
  }
  eng.schedule(0, [&] {
    handles[5].cancel();
    handles[20].cancel();
    handles[39].cancel();
  });
  eng.run();
  EXPECT_EQ(fired.size(), 37u);
  EXPECT_TRUE(std::find(fired.begin(), fired.end(), 5) == fired.end());
  EXPECT_TRUE(std::find(fired.begin(), fired.end(), 20) == fired.end());
  EXPECT_TRUE(std::find(fired.begin(), fired.end(), 39) == fired.end());
  EXPECT_EQ(eng.queued(), 0u);
}

// ---------------------------------------------------------------------------
// sim::Timer: re-arming keeps the dispatch order of cancel-and-reschedule
// ---------------------------------------------------------------------------

TEST_P(EngineBackend, TimerEarlierDeadlineRequeuesAtTheEarlierTime) {
  sim::Engine eng(GetParam());
  std::vector<sim::Time> fired;
  sim::Timer t(eng, [&] { fired.push_back(eng.now()); });
  t.arm(1000);
  t.arm(500);  // earlier: the entry at 1000 is cancelled, a new one queued
  EXPECT_EQ(eng.queued(), 2u);  // the new entry and the cancelled shell
  eng.run();
  EXPECT_EQ(fired, (std::vector<sim::Time>{500}));
  EXPECT_EQ(eng.dispatched(), 1u);
}

TEST_P(EngineBackend, TimerLaterDeadlineKeepsItsEntryAndMovesIt) {
  sim::Engine eng(GetParam());
  std::vector<sim::Time> fired;
  sim::Timer t(eng, [&] { fired.push_back(eng.now()); });
  t.arm(500);
  t.arm(1000);  // later: the entry at 500 stays and re-queues when it fires
  EXPECT_EQ(eng.queued(), 1u);  // no shell: nothing was cancelled
  eng.run();
  EXPECT_EQ(fired, (std::vector<sim::Time>{1000}));
  EXPECT_EQ(eng.dispatched(), 2u);  // the early fire ran no callback
}

TEST_P(EngineBackend, TimerPendingFollowsTheArmedState) {
  sim::Engine eng(GetParam());
  bool pending_inside = true;
  int runs = 0;
  sim::Timer* self = nullptr;
  sim::Timer t(eng, [&] {
    ++runs;
    pending_inside = self->pending();
  });
  self = &t;
  EXPECT_FALSE(t.pending());
  t.arm(100);
  EXPECT_TRUE(t.pending());
  t.cancel();
  EXPECT_FALSE(t.pending());
  eng.run_until(200);  // the cancelled entry fires as a no-op
  EXPECT_EQ(runs, 0);
  t.arm(100);
  EXPECT_TRUE(t.pending());
  t.cancel();
  t.cancel();  // idempotent
  t.arm(50);
  EXPECT_TRUE(t.pending());
  eng.run_until(400);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(pending_inside);  // already disarmed while it runs
  EXPECT_FALSE(t.pending());
}

TEST_P(EngineBackend, DestroyedTimerNeverRunsItsCallback) {
  sim::Engine eng(GetParam());
  int runs = 0;
  auto armed = std::make_unique<sim::Timer>(eng, [&] { ++runs; });
  auto cancelled = std::make_unique<sim::Timer>(eng, [&] { ++runs; });
  auto moved = std::make_unique<sim::Timer>(eng, [&] { ++runs; });
  armed->arm(100);
  cancelled->arm(100);
  cancelled->cancel();  // its entry stays queued
  moved->arm(100);
  moved->arm(300);  // its entry at 100 will re-queue to 300
  eng.run_until(50);
  armed.reset();
  cancelled.reset();
  eng.run_until(200);  // `moved` re-queues itself at 300
  moved.reset();       // destroyed with its re-queued entry pending
  eng.run();
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(eng.queued(), 0u);

  // Destroyed from inside another event, at the instant it was due.
  auto late = std::make_unique<sim::Timer>(eng, [&] { ++runs; });
  late->arm(10);
  eng.schedule(10, [&] { late.reset(); });
  late->arm(10);  // re-armed: now behind the killer at the same instant
  eng.run();
  EXPECT_EQ(runs, 0);
}

/// One dispatch of a timer script: the dispatch time, the id (timers are
/// 0..kTimers-1, plain events >= 1000), and which timers read pending().
struct TimerDispatch {
  sim::Time when;
  int id;
  unsigned pending_mask;
  bool operator==(const TimerDispatch&) const = default;
};

/// A random script of timer arms, re-arms (earlier and later), cancels and
/// plain events, some issued from inside callbacks. `use_timer` runs it on
/// sim::Timer; otherwise every arm is `cancel(); schedule()` on an
/// EventHandle — the reference the Timer must match exactly.
std::vector<TimerDispatch> run_timer_script(sim::QueueKind kind,
                                            std::uint64_t seed,
                                            bool use_timer) {
  constexpr int kTimers = 8;
  sim::Engine eng(kind);
  sim::Rng rng(seed);
  std::vector<TimerDispatch> log;
  std::function<void(int)> fire;
  std::deque<sim::Timer> timers;
  std::vector<sim::EventHandle> handles(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    timers.emplace_back(eng, [&fire, i] { fire(i); });
  }

  auto pending_mask = [&] {
    unsigned m = 0;
    for (int i = 0; i < kTimers; ++i) {
      const bool p = use_timer ? timers[i].pending() : handles[i].pending();
      if (p) m |= 1u << i;
    }
    return m;
  };
  // Delays cluster on a few values so re-arms often tie with queued
  // entries, and span the open bucket, the wheel and beyond its horizon.
  auto random_delay = [&]() -> sim::Duration {
    switch (rng.next_below(5)) {
      case 0:  return 0;
      case 1:  return static_cast<sim::Duration>(rng.next_below(4)) * 100;
      case 2:  return static_cast<sim::Duration>(rng.next_below(kBucketNs));
      case 3:  return static_cast<sim::Duration>(rng.next_below(kHorizonNs));
      default: return static_cast<sim::Duration>(
          kHorizonNs + rng.next_below(2 * kHorizonNs));
    }
  };
  auto arm = [&](int i, sim::Duration d) {
    if (use_timer) {
      timers[i].arm(d);
    } else {
      handles[i].cancel();
      handles[i] = eng.schedule(d, [&fire, i] { fire(i); });
    }
  };
  auto cancel = [&](int i) {
    if (use_timer) {
      timers[i].cancel();
    } else {
      handles[i].cancel();
    }
  };
  int next_plain = 1000;
  auto plain = [&](sim::Duration d) {
    const int id = next_plain++;
    eng.schedule(d, [&fire, id] { fire(id); });
  };
  auto random_op = [&] {
    const int i = static_cast<int>(rng.next_below(kTimers));
    switch (rng.next_below(4)) {
      case 0:
      case 1:  arm(i, random_delay()); break;
      case 2:  cancel(i); break;
      default: plain(random_delay()); break;
    }
  };

  fire = [&](int id) {
    log.push_back({eng.now(), id, pending_mask()});
    if (rng.next_below(2) == 0) random_op();
    if (id < kTimers && rng.next_below(3) == 0) arm(id, random_delay());
  };

  for (int round = 0; round < 60; ++round) {
    const int n = 1 + static_cast<int>(rng.next_below(12));
    for (int k = 0; k < n; ++k) random_op();
    eng.run_until(eng.now() + random_delay() + 1);
  }
  for (int i = 0; i < kTimers; ++i) cancel(i);
  eng.run();
  return log;
}

TEST_P(EngineBackend, TimerScriptMatchesCancelAndReschedule) {
  for (std::uint64_t seed : {1ull, 77ull, 20261017ull, 0xfeedull}) {
    const auto want = run_timer_script(GetParam(), seed, false);
    ASSERT_GT(want.size(), 200u);
    EXPECT_EQ(run_timer_script(GetParam(), seed, true), want)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Randomized equivalence vs the binary-heap oracle
// ---------------------------------------------------------------------------

/// One dispatch observed by the churn driver below.
struct Dispatch {
  sim::Time when;
  int id;
  bool operator==(const Dispatch& o) const {
    return when == o.when && id == o.id;
  }
};

/// Drive a deterministic random schedule/cancel/reschedule workload on an
/// engine with the given backend. Delays mix sub-bucket, cross-bucket, and
/// beyond-horizon magnitudes so entries keep crossing the wheel<->heap
/// boundary; callbacks re-schedule and cancel from inside dispatch. Every
/// dispatch appends to the returned log and records a kUser trace entry.
std::vector<Dispatch> run_churn(sim::QueueKind kind, std::uint64_t seed,
                                sim::Trace* trace) {
  sim::Engine eng(kind);
  eng.set_trace(trace);
  sim::Rng rng(seed);
  std::vector<Dispatch> log;
  std::vector<sim::EventHandle> handles;
  int next_id = 0;

  auto random_delay = [&]() -> sim::Duration {
    switch (rng.next_below(4)) {
      case 0:  return static_cast<sim::Duration>(rng.next_below(64));
      case 1:  return static_cast<sim::Duration>(rng.next_below(kBucketNs));
      case 2:  return static_cast<sim::Duration>(rng.next_below(kHorizonNs));
      default: return static_cast<sim::Duration>(
          kHorizonNs + rng.next_below(4 * kHorizonNs));
    }
  };

  std::function<void(int)> fire = [&](int id) {
    log.push_back({eng.now(), id});
    if (trace != nullptr) {
      trace->record(eng.now(), sim::TraceKind::kUser, id,
                    static_cast<std::int32_t>(log.size()));
    }
    // From inside dispatch: sometimes schedule a successor, sometimes
    // cancel a random outstanding handle.
    if (rng.next_below(3) == 0) {
      const int nid = next_id++;
      handles.push_back(eng.schedule(random_delay(), [&fire, nid] {
        fire(nid);
      }));
    }
    if (!handles.empty() && rng.next_below(4) == 0) {
      handles[rng.next_below(handles.size())].cancel();
    }
  };

  for (int round = 0; round < 40; ++round) {
    const int n = 5 + static_cast<int>(rng.next_below(25));
    for (int i = 0; i < n; ++i) {
      const int id = next_id++;
      handles.push_back(eng.schedule(random_delay(), [&fire, id] {
        fire(id);
      }));
    }
    // Cancel a random batch (some already-fired handles among them — both
    // no-op and live cancels are exercised).
    const int cancels = static_cast<int>(rng.next_below(8));
    for (int i = 0; i < cancels && !handles.empty(); ++i) {
      handles[rng.next_below(handles.size())].cancel();
    }
    // Advance by a random slice; occasionally drain completely.
    if (rng.next_below(10) == 0) {
      eng.run();
    } else {
      eng.run_until(eng.now() + random_delay() + 1);
    }
  }
  eng.run();
  EXPECT_EQ(eng.queued(), 0u);
  return log;
}

TEST(QueueOracle, RandomChurnMatchesBinaryHeapDispatchAndTraceBytes) {
  for (std::uint64_t seed : {1ull, 20260805ull, 0xdecafbadull}) {
    sim::Trace oracle_trace(1 << 12);
    const auto oracle =
        run_churn(sim::QueueKind::kBinaryHeap, seed, &oracle_trace);
    ASSERT_FALSE(oracle.empty());
    const auto oracle_snap = oracle_trace.snapshot();

    for (sim::QueueKind kind :
         {sim::QueueKind::kQuadHeap, sim::QueueKind::kHybridWheel}) {
      sim::Trace trace(1 << 12);
      const auto got = run_churn(kind, seed, &trace);
      EXPECT_EQ(got, oracle) << "dispatch order diverged, seed " << seed;
      const auto snap = trace.snapshot();
      ASSERT_EQ(snap.size(), oracle_snap.size());
      // Every trace record field-identical (memcmp would also compare
      // indeterminate padding bytes).
      for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].when, oracle_snap[i].when) << "record " << i;
        EXPECT_EQ(snap[i].kind, oracle_snap[i].kind) << "record " << i;
        EXPECT_EQ(snap[i].a, oracle_snap[i].a) << "record " << i;
        EXPECT_EQ(snap[i].b, oracle_snap[i].b) << "record " << i;
        EXPECT_EQ(snap[i].c, oracle_snap[i].c) << "record " << i;
        EXPECT_TRUE(snap[i].note == oracle_snap[i].note.c_str())
            << "record " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EngineBackend,
                         ::testing::ValuesIn(kAllKinds), kind_label);

}  // namespace
