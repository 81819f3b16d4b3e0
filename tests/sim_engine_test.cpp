// Unit tests for the discrete-event engine and its one dispatch loop.
#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/core/world.h"
#include "src/sim/trace.h"
#include "src/wl/registry.h"

namespace irs::sim {

/// Test-only backdoor into the event pool, used to fast-forward a slot's
/// generation counter to the wraparound boundary (reaching it organically
/// would take 2^32 schedules).
struct EngineTestAccess {
  static void set_slot_generation(Engine& eng, std::uint32_t slot,
                                  std::uint32_t gen) {
    eng.slots_.at(slot).gen = gen;
  }
  static std::uint32_t slot_generation(const Engine& eng,
                                       std::uint32_t slot) {
    return eng.slots_.at(slot).gen;
  }
};

namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
  EXPECT_EQ(eng.queued(), 0u);
  EXPECT_EQ(eng.dispatched(), 0u);
}

TEST(Engine, DispatchesInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(milliseconds(3), [&] { order.push_back(3); });
  eng.schedule(milliseconds(1), [&] { order.push_back(1); });
  eng.schedule(milliseconds(2), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), milliseconds(3));
}

TEST(Engine, SameTimestampIsFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine eng;
  eng.schedule(milliseconds(1), [] {});
  eng.run();
  bool fired = false;
  eng.schedule(-milliseconds(5), [&] { fired = true; });
  eng.run();
  fired = false;
  eng.schedule(-1, [&] { fired = true; });
  eng.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(eng.now(), milliseconds(1));
}

TEST(Engine, ScheduleAtPastClampsToNow) {
  Engine eng;
  eng.schedule(milliseconds(10), [] {});
  eng.run();
  Time fired_at = -1;
  eng.schedule_at(milliseconds(2), [&] { fired_at = eng.now(); });
  eng.run();
  EXPECT_EQ(fired_at, milliseconds(10));
}

TEST(Engine, CancelPreventsDispatch) {
  Engine eng;
  bool fired = false;
  EventHandle h = eng.schedule(milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine eng;
  int count = 0;
  EventHandle h = eng.schedule(milliseconds(1), [&] { ++count; });
  eng.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or affect anything
  eng.run();
  EXPECT_EQ(count, 1);
}

TEST(Engine, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule(milliseconds(i), [&] { ++fired; });
  }
  const auto n = eng.run_until(milliseconds(5));
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(eng.now(), milliseconds(5));
  eng.run();
  EXPECT_EQ(fired, 10);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine eng;
  eng.run_until(seconds(2));
  EXPECT_EQ(eng.now(), seconds(2));
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine eng;
  std::vector<Time> times;
  std::function<void()> chain = [&] {
    times.push_back(eng.now());
    if (times.size() < 5) eng.schedule(milliseconds(1), chain);
  };
  eng.schedule(0, chain);
  eng.run();
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], static_cast<Time>(i) * kMillisecond);
  }
}

TEST(Engine, DispatchedCounterExcludesCancelled) {
  Engine eng;
  auto h1 = eng.schedule(1, [] {});
  eng.schedule(2, [] {});
  h1.cancel();
  eng.run();
  EXPECT_EQ(eng.dispatched(), 1u);
}

// --- The one dispatch loop: stop(), nesting, budgets ---

TEST(EngineStop, StopEndsRunUntilAfterTheCallbackAndKeepsTheClock) {
  Engine eng;
  std::vector<int> order;
  for (int i = 1; i <= 6; ++i) {
    eng.schedule(milliseconds(i), [&, i] {
      order.push_back(i);
      if (i == 3) eng.stop();
    });
  }
  // A same-timestamp event queued behind the stopping one stays queued.
  eng.schedule(milliseconds(3), [&] { order.push_back(30); });
  const auto n = eng.run_until(milliseconds(100));
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // Not advanced to the deadline: the clock stays at the stopping event.
  EXPECT_EQ(eng.now(), milliseconds(3));
  // A later run resumes the remaining events in {when, seq} order.
  eng.run_until(milliseconds(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 30, 4, 5, 6}));
  EXPECT_EQ(eng.now(), milliseconds(100));
}

TEST(EngineStop, StopEndsRunAndLaterRunResumes) {
  Engine eng;
  std::vector<int> order;
  for (int i = 1; i <= 5; ++i) {
    eng.schedule(milliseconds(i), [&, i] {
      order.push_back(i);
      if (i == 2) eng.stop();
    });
  }
  const Engine::RunOutcome out = eng.run();
  EXPECT_EQ(out.dispatched, 2u);
  EXPECT_FALSE(out.budget_exhausted);
  EXPECT_EQ(eng.now(), milliseconds(2));
  EXPECT_EQ(eng.queued(), 3u);
  const Engine::RunOutcome rest = eng.run();
  EXPECT_EQ(rest.dispatched, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EngineStop, StopOutsideARunEndsTheNextRunBeforeItDispatches) {
  Engine eng;
  int fired = 0;
  eng.schedule(milliseconds(1), [&] { ++fired; });
  eng.stop();
  EXPECT_EQ(eng.run_until(milliseconds(5)), 0u);
  EXPECT_EQ(eng.now(), 0);
  // The request was consumed: the next run dispatches normally.
  EXPECT_EQ(eng.run_until(milliseconds(5)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), milliseconds(5));
}

TEST(EngineStop, NestedRunUntilInsideACallback) {
  // A callback starts a nested run over events already queued behind it;
  // the nested run dispatches them in order and the outer run carries on
  // from there. A stop() inside the nested run ends only the nested run.
  for (QueueKind kind : {QueueKind::kBinaryHeap, QueueKind::kQuadHeap,
                         QueueKind::kHybridWheel}) {
    Engine eng(kind);
    std::vector<int> fired;
    for (int i = 1; i <= 10; ++i) {
      eng.schedule(i * 100, [&fired, &eng, i] {
        fired.push_back(i);
        if (i == 7) eng.stop();
      });
    }
    eng.schedule(100, [&] {
      fired.push_back(-1);
      eng.run_until(450);  // covers events 2..4
      fired.push_back(-2);
      EXPECT_EQ(eng.now(), 450);
      eng.run_until(2000);  // stopped by event 7: ends the nested run only
      fired.push_back(-3);
      EXPECT_EQ(eng.now(), 700);
    });
    eng.run();
    EXPECT_EQ(fired, (std::vector<int>{1, -1, 2, 3, 4, -2, 5, 6, 7, -3, 8, 9,
                                       10}))
        << make_event_queue(kind)->name();
    EXPECT_EQ(eng.queued(), 0u);
  }
}

TEST(EngineStop, RunBudgetStopsAndResumes) {
  Engine eng;
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(
        eng.schedule(i + 1, [&fired, i] { fired.push_back(i); }));
  }
  handles[10].cancel();  // shells do not count against the budget
  const Engine::RunOutcome out = eng.run(30);
  EXPECT_EQ(out.dispatched, 30u);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_EQ(eng.now(), 31);  // events 0..30 minus the cancelled one
  const Engine::RunOutcome rest = eng.run();
  EXPECT_EQ(rest.dispatched, 69u);
  EXPECT_FALSE(rest.budget_exhausted);
  ASSERT_EQ(fired.size(), 99u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(eng.queued(), 0u);  // the shell was skipped, not left behind
}

TEST(EngineStop, WorldRunUntilFinishedStopsAtTheFinishingEvent) {
  core::WorldConfig wc;
  core::World w(wc);
  hv::VmConfig vc;
  vc.name = "fg";
  vc.n_vcpus = 2;
  vc.pin_map = {0, 1};
  const hv::VmId vm = w.add_vm(vc, false);
  wl::WorkloadOptions opts;
  opts.n_threads = 2;
  opts.work_scale = 0.02;
  wl::Workload& work = w.attach(vm, wl::make_workload("blackscholes", opts));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, seconds(10)));
  // stop() ended the run at the last task's finish, not at the deadline.
  EXPECT_EQ(w.engine().now(), work.makespan_end());
  // Already finished: returns at once without moving the clock.
  const Time t = w.engine().now();
  EXPECT_TRUE(w.run_until_finished(vm, seconds(10)));
  EXPECT_EQ(w.engine().now(), t);
}

TEST(EngineStop, WorldRunUntilFinishedReturnsFalseAtItsTimeout) {
  core::WorldConfig wc;
  core::World w(wc);
  hv::VmConfig vc;
  vc.name = "hog";
  vc.n_vcpus = 1;
  const hv::VmId vm = w.add_vm(vc, false);
  wl::WorkloadOptions opts;
  opts.n_threads = 1;
  w.attach(vm, wl::make_workload("hog", opts));  // endless: never finishes
  w.start();
  EXPECT_FALSE(w.run_until_finished(vm, milliseconds(50)));
  EXPECT_EQ(w.engine().now(), milliseconds(50));
  EXPECT_FALSE(w.vm_metrics(vm).workload_finished);
}

// --- Event pool / generation-handle behaviour ---

TEST(EnginePool, HandleHasThreeStates) {
  Engine eng;
  // State 1: detached (default-constructed).
  EventHandle detached;
  EXPECT_FALSE(detached.attached());
  EXPECT_FALSE(detached.pending());

  // State 2: pending.
  EventHandle h = eng.schedule(milliseconds(1), [] {});
  EXPECT_TRUE(h.attached());
  EXPECT_TRUE(h.pending());

  // State 3: spent via firing. Still attached, no longer pending.
  eng.run();
  EXPECT_TRUE(h.attached());
  EXPECT_FALSE(h.pending());

  // State 3 via cancellation is indistinguishable from firing.
  EventHandle c = eng.schedule(milliseconds(1), [] {});
  c.cancel();
  EXPECT_TRUE(c.attached());
  EXPECT_FALSE(c.pending());
}

TEST(EnginePool, SlotReusedAfterFire) {
  Engine eng;
  eng.schedule(1, [] {});
  eng.run();
  ASSERT_EQ(eng.pool_slots(), 1u);
  // The freed slot is recycled instead of growing the pool.
  eng.schedule(1, [] {});
  EXPECT_EQ(eng.pool_slots(), 1u);
  eng.run();
  EXPECT_EQ(eng.pool_slots(), 1u);
}

TEST(EnginePool, SlotReusedAfterCancel) {
  Engine eng;
  EventHandle h = eng.schedule(1000, [] {});
  ASSERT_EQ(eng.pool_slots(), 1u);
  h.cancel();
  EXPECT_EQ(eng.queued(), 1u);  // its entry stays queued as a shell
  // New event reuses the cancelled slot; the old handle must not alias it.
  EventHandle h2 = eng.schedule(2000, [] {});
  EXPECT_EQ(eng.pool_slots(), 1u);
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(h2.pending());
  h.cancel();  // stale handle: must not cancel the new event
  EXPECT_TRUE(h2.pending());
  int fired = 0;
  eng.schedule(3000, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(EnginePool, SteadyStateKeepsPoolFlat) {
  Engine eng;
  // A self-rescheduling ticker plus a cancel-heavy side channel: the pool
  // must stay at its high-water mark, not grow with event count.
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 1000) eng.schedule(10, tick);
  };
  eng.schedule(0, tick);
  eng.run();
  EXPECT_EQ(ticks, 1000);
  EXPECT_LE(eng.pool_slots(), 2u);
}

TEST(EnginePool, GenerationWraparoundIsSafe) {
  Engine eng;
  // Create slot 0 and free it, then fast-forward its generation counter to
  // the wrap boundary.
  eng.schedule(1, [] {});
  eng.run();
  EngineTestAccess::set_slot_generation(eng, 0, UINT32_MAX);

  int fired = 0;
  EventHandle old = eng.schedule(1, [&] { ++fired; });
  EXPECT_TRUE(old.pending());
  eng.run();  // firing bumps the generation: UINT32_MAX wraps to 0
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(EngineTestAccess::slot_generation(eng, 0), 0u);

  // The slot is reused at generation 0; the spent handle (gen UINT32_MAX)
  // must neither read as pending nor cancel the new occupant.
  EventHandle fresh = eng.schedule(1, [&] { ++fired; });
  EXPECT_FALSE(old.pending());
  EXPECT_TRUE(fresh.pending());
  old.cancel();
  EXPECT_TRUE(fresh.pending());
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(EnginePool, FifoTieBreakSurvivesCancelAndReuse) {
  Engine eng;
  std::vector<int> order;
  auto push = [&](int v) { return [&order, v] { order.push_back(v); }; };
  eng.schedule(milliseconds(1), push(0));
  EventHandle b = eng.schedule(milliseconds(1), push(1));
  eng.schedule(milliseconds(1), push(2));
  b.cancel();
  // Reuses b's slot but must still fire last (scheduling order, not slot
  // order, breaks timestamp ties).
  eng.schedule(milliseconds(1), push(3));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
}

TEST(EnginePool, CancelledShellsStayQueuedWhileTheirSlotsAreReused) {
  Engine eng;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(eng.schedule(milliseconds(i + 1), [&] { ++fired; }));
  }
  // Cancel 60 of 100: each entry stays queued as a shell, and each slot
  // goes back to the pool at once.
  for (int i = 0; i < 60; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(eng.queued(), 100u);
  // 60 new events at the shells' timestamps take exactly the 60 freed
  // slots, so every one shares its slot with a shell still queued. Each
  // must run at its own time, not at the time of its slot's shell.
  std::vector<Time> refired;
  std::vector<Time> due;
  for (int i = 0; i < 60; ++i) {
    due.push_back(milliseconds(i + 1));
    eng.schedule(due.back(), [&] { refired.push_back(eng.now()); });
  }
  EXPECT_EQ(eng.pool_slots(), 100u);
  EXPECT_EQ(eng.queued(), 160u);
  eng.run();
  EXPECT_EQ(fired, 40);
  EXPECT_EQ(refired, due);
  EXPECT_EQ(eng.dispatched(), 100u);  // the 60 shells ran nothing
  EXPECT_EQ(eng.queued(), 0u);
  for (const EventHandle& h : handles) EXPECT_FALSE(h.pending());
}

TEST(EnginePool, RunUntilSkipsShellsBeyondDeadline) {
  Engine eng;
  // A cancelled shell in front of the deadline must not let dispatch run
  // past the deadline to the next live event.
  EventHandle early = eng.schedule(milliseconds(1), [] {});
  int fired = 0;
  eng.schedule(milliseconds(10), [&] { ++fired; });
  early.cancel();
  eng.run_until(milliseconds(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.now(), milliseconds(5));
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(EnginePool, RunReportsBudgetExhaustion) {
  Engine eng;
  Trace trace(16);
  eng.set_trace(&trace);
  // Runaway self-rescheduling loop.
  std::function<void()> forever = [&] { eng.schedule(1, forever); };
  eng.schedule(0, forever);
  const Engine::RunOutcome out = eng.run(/*max_events=*/10);
  EXPECT_EQ(out.dispatched, 10u);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_EQ(trace.count(TraceKind::kEngineStop), 1u);

  // A drained queue is a normal completion, not exhaustion — even when the
  // count lands exactly on the budget.
  Engine eng2;
  eng2.schedule(1, [] {});
  eng2.schedule(2, [] {});
  const Engine::RunOutcome done = eng2.run(/*max_events=*/2);
  EXPECT_EQ(done.dispatched, 2u);
  EXPECT_FALSE(done.budget_exhausted);
}

// --- InlineFn (small-buffer callback) ---

TEST(InlineFn, TypicalSimCallbacksFitInline) {
  // Engine callbacks capture a few pointers/ids/durations; all of those
  // shapes must stay in the inline buffer (zero heap in steady state).
  struct FourPtrs {
    void *a, *b, *c, *d;
    void operator()() const {}
  };
  struct PtrsAndScalars {
    void* self;
    std::uint64_t id;
    Time when;
    Duration dur;
    int cpu;
    void operator()() const {}
  };
  static_assert(InlineFn::stores_inline<FourPtrs>());
  static_assert(InlineFn::stores_inline<PtrsAndScalars>());
}

TEST(InlineFn, OversizedCallableFallsBackToHeapAndStillRuns) {
  std::array<std::uint64_t, 32> big{};  // 256 bytes > kInlineBytes
  big[0] = 7;
  big[31] = 9;
  std::uint64_t sum = 0;
  auto fn = [big, &sum] { sum = big[0] + big[31]; };
  static_assert(!InlineFn::stores_inline<decltype(fn)>());
  Engine eng;
  eng.schedule(1, fn);
  eng.run();
  EXPECT_EQ(sum, 16u);
}

TEST(InlineFn, MoveTransfersOwnership) {
  int calls = 0;
  InlineFn a([&] { ++calls; });
  InlineFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
  InlineFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(InlineFn, ScheduleMovesTheCallableOnceInAndOnceOut) {
  // Copied once into the callback, the callable is then moved into its
  // slot and out of it at dispatch. A by-value hop between schedule(),
  // schedule_at() and schedule_reserved() would add a move each.
  struct CountsMoves {
    int* moves;
    bool* ran;
    CountsMoves(int* m, bool* r) : moves(m), ran(r) {}
    CountsMoves(const CountsMoves&) = default;
    CountsMoves(CountsMoves&& o) noexcept : moves(o.moves), ran(o.ran) {
      ++*moves;
    }
    void operator()() const { *ran = true; }
  };
  static_assert(InlineFn::stores_inline<CountsMoves>());
  int moves = 0;
  bool ran = false;
  const CountsMoves fn(&moves, &ran);
  Engine eng;
  eng.schedule(1, fn);
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_LE(moves, 2);
}

TEST(EngineTime, ConversionHelpers) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1000 * 1000);
  EXPECT_EQ(seconds(1), 1000 * 1000 * 1000);
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(30)), 30.0);
  EXPECT_DOUBLE_EQ(to_us(microseconds(26)), 26.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(3)), 3.0);
}

}  // namespace
}  // namespace irs::sim
