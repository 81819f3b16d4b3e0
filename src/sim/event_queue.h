// Priority-queue backends for the discrete-event engine.
//
// The engine's schedule/cancel/dispatch loop is the hottest code in the
// repo, and everything it needs from a queue is three operations over a
// 24-byte POD entry: push, peek-min and deadline-bounded pop. `EventQueue`
// pins that contract down as a small interface so backends can compete on
// cache behaviour while the engine's determinism story stays in one place:
//
//   * total order — entries are ordered by {when, seq}; `seq` is the
//     engine's monotone schedule counter, so same-timestamp events fire in
//     scheduling order (stable FIFO tie-break). Every backend must honour
//     the exact same total order: simulations are bit-identical across
//     backends, which the randomized oracle tests assert.
//   * shells — the engine cancels events by bumping the slot generation
//     and leaving the entry behind as a stale "shell". Backends store
//     shells like any other entry until they are popped; the engine
//     discards them then.
//
// Backends (make_event_queue):
//   * kBinaryHeap — the original std::push_heap/pop_heap binary heap; kept
//     as the reference oracle and the "before" of bench_report's
//     end-to-end wheel gate.
//   * kQuadHeap — 4-ary implicit heap. Half the tree depth of a binary
//     heap, and the four children of a node share at most two cache lines,
//     so deep-queue sifts touch fewer lines per level. A thin wrapper over
//     the same heap the wheel spills into.
//   * kHybridWheel — the default: a timestamp-bucketed near-future timer
//     wheel of fixed geometry (kWheelBuckets buckets of 2^kDefaultWheelShift
//     ns) that absorbs dense periodic tick/slice/softirq traffic in O(1)
//     pushes, backed by a 4-ary spill heap for entries behind the cursor or
//     beyond the wheel horizon. Every bucket's entries live in one pooled
//     node store, so a push allocates nothing once the pool has grown to
//     its high-water mark. Buckets are sorted lazily when the dispatch
//     cursor reaches them, and pops merge-compare the open bucket against
//     the heap top, preserving the {when, seq} order exactly.
#pragma once

#include <cstdint>
#include <memory>

#include "src/sim/time.h"

namespace irs::sim {

// ---------------------------------------------------------------------------
// Tuning constants, each derived from the simulator's event cadence
// ---------------------------------------------------------------------------

/// Default timer-wheel bucket width, as a log2 of nanoseconds: 2^17 ns =
/// 131.072 µs. Derived from the scheduling cadence the simulations are
/// dominated by: the hypervisor accounting tick (10 ms) and scheduling
/// slice (30 ms) spawn sub-ms softirq/IPI/wake follow-ups, so adjacent
/// events are typically tens-to-hundreds of µs apart — a 131 µs bucket
/// holds ~1-2 of them, keeping the lazy per-bucket sort trivial.
inline constexpr int kDefaultWheelShift = 17;

/// Bucket count of the timer wheel (power of two for mask arithmetic).
/// With the default shift this spans 512 × 131 µs ≈ 67 ms — longer than
/// two 30 ms slices plus margin, so every periodic rearm (tick, slice,
/// credit window) lands inside the wheel instead of spilling.
inline constexpr std::size_t kWheelBuckets = 512;

/// 24-byte POD queue entry; cheap to move during sift operations. `slot`
/// and `gen` identify the engine pool slot the callback lives in; an entry
/// is live iff the slot's current generation still equals `gen`.
struct QEntry {
  Time when = 0;
  std::uint64_t seq = 0;  // FIFO tie-break for identical timestamps
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};

/// Strict total order of dispatch: earlier `when` first, then lower `seq`.
inline bool entry_before(const QEntry& a, const QEntry& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

/// Deadline that never bounds a pop (every event `when` is below it).
inline constexpr Time kTimeMax = INT64_MAX;

/// Selects an EventQueue backend (see make_event_queue).
enum class QueueKind : std::uint8_t {
  kBinaryHeap,
  kQuadHeap,
  kHybridWheel,
};

/// Minimal priority-queue contract the engine dispatch loop needs.
/// Entries are opaque to the queue apart from the {when, seq} order;
/// liveness is the engine's business.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  [[nodiscard]] virtual QueueKind kind() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Insert an entry. `e.when` must be >= the `when` of every entry already
  /// popped, and `e.seq` must never collide with a resident entry's seq
  /// (the engine clamps `when` to now() and draws seq from a counter).
  virtual void push(const QEntry& e) = 0;

  /// Earliest entry by {when, seq} without removing it; false when empty.
  /// May reorganise internal state (the wheel opens its next bucket), so it
  /// is non-const, but never changes the pop sequence. Off the hot path —
  /// the dispatch loop uses pop_until so extraction costs one virtual call
  /// and one min-selection per event.
  virtual bool peek(QEntry* out) = 0;

  /// Remove and return the earliest entry iff its `when` is <= deadline;
  /// false when the queue is empty or the earliest entry is later. The
  /// single-event extraction primitive: deadline-bounded runs and
  /// unbounded runs (deadline = kTimeMax) share it.
  virtual bool pop_until(Time deadline, QEntry* out) = 0;

  /// Remove and return the earliest entry; false when empty.
  bool pop(QEntry* out) { return pop_until(kTimeMax, out); }

  /// Entries currently stored, including stale shells, wherever they sit
  /// (heap, wheel bucket, or open bucket). Engine::queued() reports it.
  [[nodiscard]] virtual std::size_t size() const = 0;
};

/// The backend the engine uses when none is requested explicitly:
/// kHybridWheel, overridable for experiments via IRS_ENGINE_QUEUE
/// ("binary", "quad", "wheel"). Read once per process. Throws
/// std::invalid_argument naming the value when it is none of the three:
/// running the default instead would let a binary-vs-wheel comparison
/// with a typo compare the wheel with itself.
QueueKind default_queue_kind();

/// Parse a backend name ("binary", "quad", "wheel"). Returns false on
/// unknown names.
bool parse_queue_kind(const char* s, QueueKind* out);

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

}  // namespace irs::sim
