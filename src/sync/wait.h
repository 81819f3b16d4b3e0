// Shared result types for guest-level synchronisation primitives.
#pragma once

#include <cstdint>

namespace irs::guest {
class Task;
}

namespace irs::sync {

/// Outcome of a blocking acquire/arrive.
enum class AcquireResult : std::uint8_t {
  kAcquired,  // proceed immediately
  kBlocked,   // caller must block the task; a later wake-up resumes it
};

/// Outcome of a spinning acquire/arrive.
enum class SpinResult : std::uint8_t {
  kAcquired,  // proceed immediately
  kSpin,      // caller must put the task into a busy-wait loop
};

/// Objects a task can busy-wait on (ticket locks, spinning barriers).
/// The guest CPU calls poll() whenever a spin-waiting task's loop actually
/// executes again (vCPU rescheduled, task context-switched in) so the
/// primitive can decide whether the wait is over. This models the
/// fundamental property behind LWP: a preempted spinner cannot observe a
/// release until its vCPU runs.
class SpinWaitable {
 public:
  virtual ~SpinWaitable() = default;
  virtual void poll(guest::Task& t) = 0;
  /// Name of the primitive being waited on, for LWP attribution. The
  /// returned storage must outlive the waitable.
  [[nodiscard]] virtual const char* wait_name() const = 0;
};

}  // namespace irs::sync
