// Lightweight event tracing for debugging, for tests that assert on
// scheduling decisions, and for the obs exporters. Disabled by default;
// enabling keeps the most recent `capacity` records in a ring buffer.
//
// Every producer (the hypervisor, the guest kernels, the engine) appends
// straight to the ring and stamps the engine's current time, so append
// order is time order: the ring is chronological by construction, view()
// reads it in place as two segments oldest first, snapshot() copies that
// view, and a wrap drops exactly the oldest records — what survives is an
// exact suffix of everything recorded.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace irs::sim {

/// Trace record categories, roughly one per subsystem.
enum class TraceKind : std::uint8_t {
  kHvSchedule,    // hypervisor picked a vCPU for a pCPU
  kHvPreempt,     // involuntary vCPU deschedule
  kHvBlock,       // vCPU blocked (guest idle / SCHEDOP_block)
  kHvWake,        // vCPU woke
  kSaSend,        // SA notification sent (IRS)
  kSaAck,         // guest acknowledged SA
  kGuestSwitch,   // guest context switch on a vCPU
  kGuestWake,     // task wakeup
  kMigrate,       // task migrated between vCPUs
  kLhp,           // lock-holder preemption detected
  kLwp,           // lock-waiter preemption detected
  kPleExit,       // pause-loop exit fired
  kCoStop,        // relaxed-co stopped a leading vCPU
  kEngineStop,    // engine stopped dispatching (event budget exhausted)
  kQueueGeometry, // never recorded (fixed wheel geometry); kept for stable ids
  kReqBegin,      // request began (a=req id, b=SLO class, c=task;
                  //   synthesized from the workload span log at analysis
                  //   time — never recorded into the ring at runtime)
  kReqEnd,        // request completed (same payload and provenance)
  kUser,          // free-form
};

/// One past the last enumerator — lets tests iterate every kind.
inline constexpr int kNumTraceKinds = static_cast<int>(TraceKind::kUser) + 1;

const char* trace_kind_name(TraceKind k);

/// Owned small-string annotation. TraceRecord used to hold a `const char*`,
/// which dangled whenever a producer passed anything but a string literal;
/// records now copy (and truncate) the note into inline storage.
class TraceNote {
 public:
  static constexpr std::size_t kMax = 15;  // + NUL terminator

  TraceNote() { buf_[0] = '\0'; }
  TraceNote(const char* s) {  // NOLINT(google-explicit-constructor)
    if (s == nullptr) s = "";
    std::size_t n = std::strlen(s);
    if (n > kMax) n = kMax;
    std::memcpy(buf_, s, n);
    buf_[n] = '\0';
  }

  [[nodiscard]] const char* c_str() const { return buf_; }
  [[nodiscard]] bool empty() const { return buf_[0] == '\0'; }
  friend bool operator==(const TraceNote& a, const char* b) {
    return std::strcmp(a.buf_, b) == 0;
  }

 private:
  char buf_[kMax + 1];
};

/// One trace record. Its position in a snapshot is its order: records at
/// equal `when` keep the order they were produced in.
struct TraceRecord {
  Time when = 0;
  TraceKind kind = TraceKind::kUser;
  std::int32_t a = -1;  // subsystem-defined (e.g. vCPU id)
  std::int32_t b = -1;  // subsystem-defined (e.g. pCPU or task id)
  std::int32_t c = -1;  // subsystem-defined third payload (e.g. source vCPU)
  TraceNote note;
};
static_assert(sizeof(TraceRecord) == 40, "ring memory is sized per record");

/// Retained ring records in place, oldest first: every record of `older`,
/// then every record of `newer`. In a Trace::view(), `newer` is empty
/// until the ring wraps and `older` is empty only when nothing is
/// retained; the view borrows the ring's storage, so it is valid until the
/// ring's next record(), set_capacity() or clear(). A snapshot vector
/// reads as `{records, {}}`.
struct TraceView {
  std::span<const TraceRecord> older;
  std::span<const TraceRecord> newer;

  [[nodiscard]] std::size_t size() const {
    return older.size() + newer.size();
  }
};

/// Fixed-capacity ring of trace records.
///
/// Capacity overflow is not silent: `dropped()` counts overwritten records
/// and `total_recorded()` counts every accepted record, so tests can detect
/// a wrapped ring and the exporter annotates truncation.
class Trace {
 public:
  explicit Trace(std::size_t capacity = 0) { set_capacity(capacity); }

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  void set_capacity(std::size_t capacity);

  /// Append one record. Disabled rings return on the first check, so an
  /// untraced run pays one load and one branch per record site.
  void record(Time when, TraceKind kind, std::int32_t a, std::int32_t b,
              const char* note = "", std::int32_t c = -1) {
    if (capacity_ == 0) return;
    const TraceRecord rec{when, kind, a, b, c, note};
    ++total_;
    if (ring_.size() < capacity_) {
      ring_.push_back(rec);
      return;
    }
    ring_[head_] = rec;
    if (++head_ == capacity_) head_ = 0;
    ++dropped_;
  }

  /// Retained records in production order (oldest first), in place: the
  /// ring split at its oldest slot.
  [[nodiscard]] TraceView view() const;

  /// A copy of view(), concatenated.
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  /// Count of records of a given kind currently retained.
  [[nodiscard]] std::size_t count(TraceKind kind) const;

  /// Human-readable dump (for failing-test diagnostics).
  [[nodiscard]] std::string dump() const;

  /// Records lost to ring wrap-around since the last set_capacity/clear.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Records accepted (retained + dropped) since the last
  /// set_capacity/clear.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }

  void clear();

 private:
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // oldest record (next write slot) once full
  std::uint64_t dropped_ = 0;
  std::uint64_t total_ = 0;
  std::vector<TraceRecord> ring_;
};

}  // namespace irs::sim
