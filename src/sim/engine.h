// Discrete-event simulation engine.
//
// The engine owns a priority queue of event references backed by a slab
// pool of event slots. Events scheduled for the same timestamp fire in
// scheduling order (stable FIFO tie-break), which keeps simulations
// deterministic regardless of queue internals.
//
// Memory layout (the schedule/cancel/dispatch path is the hottest code in
// the repo; bench_report times it end to end on serial fig05):
//   * callbacks live in a slab of reusable `Slot`s, each holding a
//     small-buffer-optimised `InlineFn` — no per-event heap allocation in
//     steady state;
//   * the queue stores 24-byte POD entries {when, seq, slot, gen} behind
//     the sim::EventQueue interface (src/sim/event_queue.h). The default
//     backend is a near-future timer wheel that absorbs the dense periodic
//     tick/slice/softirq traffic in O(1) and spills the rest to a 4-ary
//     heap; the original binary heap remains available as the reference
//     oracle. All backends dispatch in the identical {when, seq} order, so
//     traces are bit-identical across them;
//   * run_until() and run() share one dispatch loop that pops one due
//     entry at a time, skips stale shells, and ends when the queue has
//     nothing due, the event budget is spent, or a callback calls stop();
//   * cancellation bumps the slot's generation counter, instantly
//     invalidating every outstanding handle and leaving a stale "shell"
//     entry in the queue. The shell stays until dispatch pops and skips
//     it: the model's queues stay a few hundred entries deep, so sweeping
//     shells out early never paid;
//   * a timer that is re-programmed on every context switch is a
//     sim::Timer, not a handle cancelled and rescheduled each time: it
//     keeps one queued entry and moves it only when it fires early, with
//     the dispatch order of cancel-and-reschedule (see Timer below).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/callback.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace irs::sim {

class Engine;
class Timer;
class Trace;
struct EngineTestAccess;

/// Handle to a scheduled event, a {slot, generation} reference into the
/// engine's event pool. Handles are value types: trivially copyable, two
/// words wide, never owning.
///
/// A handle is in exactly one of three states:
///   1. detached  — default-constructed, never bound to an engine:
///                  `!attached() && !pending()`;
///   2. pending   — the event is queued and will fire:
///                  `attached() && pending()`;
///   3. spent     — the event fired or was cancelled (the two are
///                  deliberately indistinguishable: either way it will
///                  never run): `attached() && !pending()`.
/// Cancelling an already-spent or detached handle is a no-op, so callers
/// can hold handles without tracking lifecycle precisely. A handle must not
/// outlive its engine.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still waiting to fire.
  [[nodiscard]] bool pending() const;

  /// True if this handle was ever returned by a schedule call (i.e. it is
  /// not default-constructed). Distinguishes state 1 from state 3 above.
  [[nodiscard]] bool attached() const { return eng_ != nullptr; }

  /// Prevent the event from firing. Safe to call repeatedly; on a spent or
  /// detached handle it costs one inline check.
  void cancel();

 private:
  friend class Engine;
  EventHandle(Engine* eng, std::uint32_t slot, std::uint32_t gen)
      : eng_(eng), slot_(slot), gen_(gen) {}

  Engine* eng_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The event-driven clock that everything in the simulation hangs off.
class Engine {
 public:
  using Callback = InlineFn;

  /// The queue backend defaults to default_queue_kind() (the hybrid wheel,
  /// or IRS_ENGINE_QUEUE when set); tests and benches pass one explicitly.
  Engine() : Engine(default_queue_kind()) {}
  explicit Engine(QueueKind queue_kind)
      : queue_(make_event_queue(queue_kind)) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` to run `delay` ns from now. Negative delays are clamped
  /// to zero (fires this instant, after already-queued same-time events).
  /// The schedule calls take `fn` by reference, so the callable is
  /// relocated once into its slot and once out at dispatch.
  EventHandle schedule(Duration delay, Callback&& fn);

  /// Schedule `fn` at an absolute timestamp (clamped to now()).
  EventHandle schedule_at(Time when, Callback&& fn);

  /// Run events until the queue drains or `deadline` passes, then move the
  /// clock to `deadline` — unless stop() ended the run, in which case the
  /// clock stays at the stopping callback's time. Returns the number of
  /// events dispatched.
  std::uint64_t run_until(Time deadline);

  /// Outcome of a bounded run() call.
  struct RunOutcome {
    std::uint64_t dispatched = 0;
    /// True when the run stopped because `max_events` was hit while live
    /// events remained queued — a runaway self-rescheduling loop. Also
    /// recorded on the trace ring (TraceKind::kEngineStop) when tracing is
    /// enabled.
    bool budget_exhausted = false;
  };

  /// Run until no events remain, or until `max_events` have been
  /// dispatched. Callers passing a budget must check
  /// `RunOutcome::budget_exhausted` — hitting the guard is a simulation
  /// bug (runaway loop), not a normal completion.
  RunOutcome run(std::uint64_t max_events = UINT64_MAX);

  /// End the innermost running run_until()/run() once the current callback
  /// returns; the remaining events stay queued for a later run. Called
  /// outside any run, it ends the next run before its first dispatch.
  void stop() { stop_ = true; }

  /// Number of entries waiting in the queue backend, wherever they sit,
  /// including cancelled shells that dispatch has not yet skipped.
  [[nodiscard]] std::size_t queued() const { return queue_->size(); }

  /// Size of the slot pool (high-water mark of concurrently queued events).
  [[nodiscard]] std::size_t pool_slots() const { return slots_.size(); }

  /// Total events dispatched over the engine's lifetime.
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  /// The queue backend this engine dispatches from.
  [[nodiscard]] QueueKind queue_kind() const { return queue_->kind(); }
  [[nodiscard]] const char* queue_name() const { return queue_->name(); }

  /// Attach a trace ring for engine-level diagnostics (budget exhaustion).
  void set_trace(Trace* trace) { trace_ = trace; }

 private:
  friend class EventHandle;
  friend class Timer;
  friend struct EngineTestAccess;

  static constexpr std::uint32_t kNpos = UINT32_MAX;

  /// Pooled event body. `gen` counts reuses of the slot; an EventHandle or
  /// queue entry referring to it is live iff its generation matches.
  /// Generations are 32-bit: a stale handle could alias a future event
  /// only after 2^32 reuses of one slot while the handle is still held,
  /// which no simulation approaches (engines dispatch ~1e7 events total).
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNpos;
  };

  [[nodiscard]] bool event_pending(std::uint32_t slot,
                                   std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }
  /// Draw the seq the next schedule() would take. Timer only: it reserves
  /// the key a cancel-and-reschedule would have queued at.
  std::uint64_t reserve_seq() { return next_seq_++; }
  /// Queue `fn` at the exact key {when, seq}; `when` >= now() and `seq`
  /// came from reserve_seq(). The one place an entry is pushed.
  EventHandle schedule_reserved(Time when, std::uint64_t seq,
                                Callback&& fn);

  std::uint32_t acquire_slot();
  /// Free `slot` and bump its generation, so every handle and queue entry
  /// that refers to it goes stale. Cancelling is exactly this: the event's
  /// queue entry stays behind as a shell.
  void release_slot(std::uint32_t slot);

  /// Discard stale shells off the queue front so *out is the earliest live
  /// entry; false when no live entry remains. Off the hot path (run()'s
  /// budget-exhaustion check) — the dispatch loop pops directly.
  bool peek_live(QEntry* out);

  /// The one dispatch loop behind run_until()/run(): pop live entries due
  /// by `deadline` and invoke them until none is due, `max_events` have
  /// fired, or a callback calls stop(). Returns true iff stop() ended it
  /// (and clears the request).
  bool dispatch_loop(Time deadline, std::uint64_t max_events);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::unique_ptr<EventQueue> queue_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNpos;
  Trace* trace_ = nullptr;
  bool stop_ = false;
};

inline bool EventHandle::pending() const {
  return eng_ != nullptr && eng_->event_pending(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (pending()) eng_->release_slot(slot_);
}

/// A re-armable one-shot timer with a fixed callback: the model of a
/// per-CPU timer its owner re-programs on every switch (Xen's per-pCPU
/// s_timer, a guest's tick). It replaces an EventHandle that is cancelled
/// and rescheduled, with the same dispatch order and far fewer queue
/// operations:
///   * arm(delay) draws the seq that `cancel(); schedule(delay)` would
///     draw, at the same moment, and records {now + delay, seq} as the key
///     the callback must run at. Every other event keeps its exact seq.
///   * If the entry already queued is due no later than that key, it stays.
///     When it fires early it re-queues itself at the recorded key and runs
///     nothing; every backend orders strictly by {when, seq}, so the
///     callback runs exactly where the rescheduled event would have.
///   * If the new deadline is earlier, the queued entry is cancelled and a
///     new one queued at the recorded key.
///   * cancel() only clears the deadline: the queued entry later fires as
///     a no-op, or the next arm() reuses it.
/// Those stale fires run no model code. They show only in
/// Engine::dispatched() and in the clock left behind by a run() that
/// drains the queue. A Timer is neither copyable nor movable (its queued
/// entry points at it), must not outlive its engine, and takes its queued
/// entry with it when destroyed.
class Timer {
 public:
  Timer(Engine& eng, Engine::Callback fn) : eng_(eng), fn_(std::move(fn)) {}
  ~Timer() { queued_.cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Run the callback `delay` ns from now (negative delays clamp to zero),
  /// replacing any earlier arming: `cancel(); schedule(delay)`.
  void arm(Duration delay);

  /// Disarm; the callback does not run until the next arm().
  void cancel() { armed_ = false; }

  /// True while armed. False once the callback has started, and after
  /// cancel() — the states an EventHandle's pending() reports.
  [[nodiscard]] bool pending() const { return armed_; }

 private:
  /// Queue the trampoline at the armed key {deadline_, seq_}.
  void queue();
  void fire();

  Engine& eng_;
  Engine::Callback fn_;
  EventHandle queued_;             // the one queued entry, if any
  Time queued_when_ = 0;           // its key
  std::uint64_t queued_seq_ = 0;
  Time deadline_ = 0;              // key the callback runs at, while armed
  std::uint64_t seq_ = 0;
  bool armed_ = false;
};

}  // namespace irs::sim
