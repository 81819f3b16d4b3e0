// Per-vCPU runstate replay: the one reading of the hypervisor's runstate
// records (kHvSchedule, kHvPreempt, kHvWake, kHvBlock, and the kLhp/kLwp
// that class a preemption) as on-CPU spans and classified steal windows.
// Attribution (per task), forensics (per request) and the Chrome exporter
// (per vCPU lane) all see a vCPU's time through it. DESIGN §11.3 lists the
// rules, one per record kind, as step() applies them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace irs::obs {

/// Steal-window classes, in the order forensics indexes its stopwatches.
enum class StealClass : std::uint8_t { kLhp, kLwp, kThrottle, kPlain };
inline constexpr int kNumStealClasses = 4;

/// The vCPU holds pCPU `pcpu` from `start`.
struct CpuSpan {
  sim::Time start = 0;
  std::int32_t pcpu = -1;
};

/// The vCPU is runnable without a pCPU from `start`.
struct StealWindow {
  sim::Time start = 0;
  StealClass cls = StealClass::kPlain;
  bool wake = false;       // opened by kHvWake, not kHvPreempt
  std::int32_t task = -1;  // the kLhp/kLwp task; window_open may set it
  sim::TraceNote lock;     // the kLhp/kLwp lock name
};

/// The calls step() and finish() make, inlined. A consumer derives from
/// this and hides the ones it needs.
struct RunstateHooks {
  void span_open(int, const CpuSpan&) {}
  void span_close(int, const CpuSpan&, sim::Time) {}
  void window_open(int, StealWindow&) {}
  void window_close(int, const StealWindow&, sim::Time) {}
};

class RunstateReplay {
 public:
  /// Apply one record, oldest first; other kinds are ignored.
  template <typename Hooks>
  void step(const sim::TraceRecord& r, Hooks& h) {
    if (r.a < 0) return;  // not a vCPU
    switch (r.kind) {
      case sim::TraceKind::kLhp:
      case sim::TraceKind::kLwp:
        // The later class wins; a kHvPreempt uses it up.
        at(r.a).next = StealWindow{.cls = r.kind == sim::TraceKind::kLhp
                                              ? StealClass::kLhp
                                              : StealClass::kLwp,
                                   .task = r.c,
                                   .lock = r.note};
        return;
      case sim::TraceKind::kHvSchedule: {
        Vcpu& v = at(r.a);
        close(r.a, v, r.when, h);  // a window, or the span this splits
        v.next = {};
        v.state = State::kOnCpu;
        v.span = CpuSpan{r.when, r.b};
        h.span_open(r.a, v.span);
        return;
      }
      case sim::TraceKind::kHvPreempt: {
        Vcpu& v = at(r.a);
        if (v.state != State::kStealing) {  // else keep the earlier window
          close(r.a, v, r.when, h);
          if (v.next.cls == StealClass::kPlain && r.note == "throttle") {
            v.next.cls = StealClass::kThrottle;
          }
          open(r.a, v, v.next, r.when, h);
        }
        v.next = {};
        return;
      }
      case sim::TraceKind::kHvWake: {
        Vcpu& v = at(r.a);
        if (v.state == State::kOff) {
          StealWindow wake;
          wake.wake = true;
          open(r.a, v, wake, r.when, h);
        }
        return;
      }
      case sim::TraceKind::kHvBlock: {
        Vcpu& v = at(r.a);
        close(r.a, v, r.when, h);
        v.next = {};
        return;
      }
      default:
        return;
    }
  }

  /// Close what is still open at `end`, in vCPU-id order.
  template <typename Hooks>
  void finish(sim::Time end, Hooks& h) {
    for (std::size_t i = 0; i < vcpus_.size(); ++i) {
      close(static_cast<int>(i), vcpus_[i], end, h);
    }
  }

 private:
  /// A span and a window are never open at once.
  enum class State : std::uint8_t { kOff, kOnCpu, kStealing };

  struct Vcpu {
    State state = State::kOff;
    CpuSpan span;
    StealWindow window;
    StealWindow next;  // the window a kHvPreempt opens: plain unless classed
  };

  Vcpu& at(int vcpu) {
    const auto i = static_cast<std::size_t>(vcpu);
    if (i >= vcpus_.size()) vcpus_.resize(i + 1);
    return vcpus_[i];
  }

  template <typename Hooks>
  static void open(int id, Vcpu& v, const StealWindow& w, sim::Time start,
                   Hooks& h) {
    v.window = w;
    v.window.start = start;
    v.state = State::kStealing;
    h.window_open(id, v.window);
  }

  template <typename Hooks>
  static void close(int id, Vcpu& v, sim::Time end, Hooks& h) {
    if (v.state == State::kOnCpu) h.span_close(id, v.span, end);
    if (v.state == State::kStealing) h.window_close(id, v.window, end);
    v.state = State::kOff;
  }

  std::vector<Vcpu> vcpus_;
};

}  // namespace irs::obs
