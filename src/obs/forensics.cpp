#include "src/obs/forensics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <set>
#include <vector>


namespace irs::obs {

const char* cause_name(Cause c) {
  switch (c) {
    case Cause::kRun: return "run";
    case Cause::kReadyWait: return "ready_wait";
    case Cause::kLhp: return "lhp";
    case Cause::kLwp: return "lwp";
    case Cause::kSteal: return "steal";
    case Cause::kThrottle: return "throttle";
    case Cause::kMigration: return "migration";
    case Cause::kSaNotify: return "sa_notify";
    case Cause::kBlock: return "block";
    case Cause::kUntracked: return "untracked";
    case Cause::kQueueWait: return "queue_wait";
  }
  return "?";
}

sim::Duration ForensicsClassResult::cause_total(Cause c) const {
  const LatencyHistogram& h = causes[static_cast<int>(c)];
  const unsigned __int128 s =
      (static_cast<unsigned __int128>(h.sum_hi()) << 64) | h.sum_lo();
  return static_cast<sim::Duration>(s);
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

namespace {

/// Lazily-accruing cumulative stopwatch: value(t) is the total time the
/// tracked condition has held up to t. Idempotent start/stop.
struct Accum {
  sim::Duration sum = 0;
  sim::Time since = -1;

  void start(sim::Time t) {
    if (since < 0) since = t;
  }
  void stop(sim::Time t) {
    if (since >= 0) {
      sum += t - since;
      since = -1;
    }
  }
  [[nodiscard]] bool active() const { return since >= 0; }
  [[nodiscard]] sim::Duration value(sim::Time t) const {
    return active() ? sum + (t - since) : sum;
  }
};

/// Steal-window classes (index into VcpuState::steal).
constexpr int kStLhp = 0;
constexpr int kStLwp = 1;
constexpr int kStThrottle = 2;
constexpr int kStOther = 3;
constexpr int kNumStealClasses = 4;

constexpr Cause kStealCause[kNumStealClasses] = {
    Cause::kLhp, Cause::kLwp, Cause::kThrottle, Cause::kSteal};

struct VcpuState {
  Accum run;                        // holds a pCPU
  Accum sa;                         // running inside an SA grace window
  Accum steal[kNumStealClasses];    // runnable without a pCPU, by class
  int open_steal = -1;              // class of the open steal window, or -1
};

/// A closed sub-span of an off-CPU chain whose cause (blocked vs
/// ready-wait) is not yet known: both candidate charges are precomputed
/// from accumulator deltas so resolution is a pure re-labeling.
struct SubCharge {
  sim::Duration dur = 0;
  sim::Duration steal[kNumStealClasses] = {};  // ready-wait resolution
  sim::Duration lhp_active = 0;                // blocked resolution
  bool in_req = false;
};

enum TaskPhase : int {
  kPhUnknown = 0,
  kPhOn,       // on a guest lane
  kPhPending,  // left the lane, wake not yet seen (blocked or ready-wait)
  kPhWaiting,  // woken, runnable, waiting for the lane
};

struct TaskState {
  int phase = kPhUnknown;
  int vcpu = -1;           // lane (on) or assigned runqueue (off)
  sim::Time seg_start = -1;
  // Accumulator snapshots of `vcpu` taken at seg_start:
  sim::Duration run0 = 0;
  sim::Duration sa0 = 0;
  sim::Duration steal0[kNumStealClasses] = {};
  sim::Duration lhp_active0 = 0;
  std::vector<SubCharge> chain;  // closed sub-spans of the open off-chain
  // Active request span:
  bool req_active = false;
  sim::Time req_begin = 0;
  std::int32_t req_cls = 0;
  sim::Duration causes[kNumCauses] = {};
  // Unconsumed migration cache penalty (charged against future run time).
  sim::Duration mig_debt = 0;
};

struct Analyzer {
  const SloResult& slo;
  sim::Duration window = 0;
  Accum lhp_active{};  // >= 1 LHP-classified steal window open in the VM
  int lhp_open = 0;
  // Flat id-indexed state: vCPU and task ids are small dense integers
  // (TraceMeta enumerates them), so the per-record lookups on the replay
  // hot path are array loads, not tree walks. The four vCPU arrays are
  // sized together up front from the meta; every handler reaches them only
  // through the bounds-checked fg_vcpu() test, so ids beyond the meta
  // (foreign or synthetic records) are simply not foreground. Task state
  // grows on demand.
  std::vector<VcpuState> vcpus{};          // global vCPU id -> state
  std::vector<signed char> is_fg{};        // global vCPU id -> foreground?
  std::vector<signed char> pending_cls{};  // vCPU -> steal hint, -1 none
  std::vector<std::int32_t> lane{};        // fg gcpu -> on-lane task, -1 idle
  std::vector<TaskState> tasks{};          // task id -> state
  ForensicsResult out{};
  std::vector<std::set<std::int64_t>> violating{};  // per class: window idxs

  [[nodiscard]] bool fg_vcpu(int v) const {
    return v >= 0 && v < static_cast<int>(is_fg.size()) && is_fg[v] != 0;
  }
  TaskState& task(std::int32_t t) {
    if (t >= static_cast<std::int32_t>(tasks.size())) tasks.resize(t + 1);
    return tasks[t];
  }

  void ensure_class(int cls) {
    while (static_cast<int>(out.classes.size()) <= cls) {
      ForensicsClassResult c;
      const std::size_t i = out.classes.size();
      if (i < slo.classes.size()) {
        c.name = slo.classes[i].name;
        c.spec = slo.classes[i].spec;
      } else {
        c.name = "class" + std::to_string(i);
      }
      out.classes.push_back(std::move(c));
      std::set<std::int64_t> viol;
      if (i < slo.classes.size()) {
        for (const SloWindow& w : slo.classes[i].windows) {
          if (burn_rate(w, slo.classes[i].spec) > 1.0) viol.insert(w.index);
        }
      }
      violating.push_back(std::move(viol));
    }
  }

  void lhp_inc(sim::Time t) {
    if (lhp_open++ == 0) lhp_active.start(t);
  }
  void lhp_dec(sim::Time t) {
    if (--lhp_open == 0) lhp_active.stop(t);
  }

  VcpuState& vc(int v) { return vcpus[static_cast<std::size_t>(v)]; }

  /// Snapshot the accumulators of ts.vcpu at t and restart the segment.
  void snapshot(TaskState& ts, sim::Time t) {
    ts.seg_start = t;
    ts.lhp_active0 = lhp_active.value(t);
    if (fg_vcpu(ts.vcpu)) {
      VcpuState& v = vc(ts.vcpu);
      ts.run0 = v.run.value(t);
      ts.sa0 = v.sa.value(t);
      for (int c = 0; c < kNumStealClasses; ++c) {
        ts.steal0[c] = v.steal[c].value(t);
      }
    } else {
      ts.run0 = ts.sa0 = 0;
      for (int c = 0; c < kNumStealClasses; ++c) ts.steal0[c] = 0;
    }
  }

  /// Settle an on-lane segment [seg_start, t]: charge run / SA / steal /
  /// migration overlaps to the active request (when there is one) and
  /// consume migration debt either way.
  void close_on(TaskState& ts, sim::Time t) {
    if (ts.seg_start < 0 || t <= ts.seg_start) return;
    const sim::Duration dur = t - ts.seg_start;
    sim::Duration d_run = 0, d_sa = 0, d_steal[kNumStealClasses] = {};
    sim::Duration steal_sum = 0;
    if (fg_vcpu(ts.vcpu)) {
      VcpuState& v = vc(ts.vcpu);
      d_run = v.run.value(t) - ts.run0;
      d_sa = v.sa.value(t) - ts.sa0;
      for (int c = 0; c < kNumStealClasses; ++c) {
        d_steal[c] = v.steal[c].value(t) - ts.steal0[c];
        steal_sum += d_steal[c];
      }
    }
    sim::Duration run_raw = d_run - d_sa;
    if (run_raw < 0) run_raw = 0;
    const sim::Duration mig = std::min(ts.mig_debt, run_raw);
    ts.mig_debt -= mig;
    if (ts.req_active) {
      ts.causes[static_cast<int>(Cause::kSaNotify)] += d_sa;
      ts.causes[static_cast<int>(Cause::kMigration)] += mig;
      ts.causes[static_cast<int>(Cause::kRun)] += run_raw - mig;
      for (int c = 0; c < kNumStealClasses; ++c) {
        ts.causes[static_cast<int>(kStealCause[c])] += d_steal[c];
      }
      const sim::Duration rest = dur - d_run - steal_sum;
      if (rest > 0) ts.causes[static_cast<int>(Cause::kUntracked)] += rest;
    }
  }

  /// Close the current off-chain sub-span [seg_start, t] with both
  /// candidate charges; resolution happens when the chain's cause is known.
  void close_off_sub(TaskState& ts, sim::Time t) {
    if (ts.seg_start < 0 || t <= ts.seg_start) return;
    SubCharge s;
    s.dur = t - ts.seg_start;
    s.in_req = ts.req_active;
    s.lhp_active = lhp_active.value(t) - ts.lhp_active0;
    if (s.lhp_active > s.dur) s.lhp_active = s.dur;
    if (fg_vcpu(ts.vcpu)) {
      VcpuState& v = vc(ts.vcpu);
      for (int c = 0; c < kNumStealClasses; ++c) {
        s.steal[c] = v.steal[c].value(t) - ts.steal0[c];
      }
    }
    ts.chain.push_back(s);
  }

  /// The chain's cause became known: `blocked` chains (ended by a wake)
  /// split into lock-freeze overlap (lhp) + voluntary block; ready chains
  /// (reached the lane with no wake) split into runqueue-vCPU steal
  /// overlaps + genuine CPU contention (ready_wait).
  void resolve_chain(TaskState& ts, bool blocked) {
    for (const SubCharge& s : ts.chain) {
      if (!s.in_req) continue;
      if (blocked) {
        ts.causes[static_cast<int>(Cause::kLhp)] += s.lhp_active;
        ts.causes[static_cast<int>(Cause::kBlock)] += s.dur - s.lhp_active;
      } else {
        sim::Duration steal_sum = 0;
        for (int c = 0; c < kNumStealClasses; ++c) {
          ts.causes[static_cast<int>(kStealCause[c])] += s.steal[c];
          steal_sum += s.steal[c];
        }
        const sim::Duration rest = s.dur - steal_sum;
        if (rest > 0) ts.causes[static_cast<int>(Cause::kReadyWait)] += rest;
      }
    }
    ts.chain.clear();
  }

  // --- event handlers -----------------------------------------------------

  void on_guest_switch(const sim::TraceRecord& r) {
    const int gcpu = r.a;
    const std::int32_t old = lane[static_cast<std::size_t>(gcpu)];
    if (old >= 0 && old != r.b) {
      TaskState& ot = task(old);
      if (ot.phase == kPhOn && ot.vcpu == gcpu) {
        close_on(ot, r.when);
        ot.phase = kPhPending;
        snapshot(ot, r.when);
      }
    }
    lane[static_cast<std::size_t>(gcpu)] = r.b;
    if (r.b < 0) return;
    TaskState& ts = task(r.b);
    if (ts.phase == kPhOn) {
      if (ts.vcpu != gcpu) {
        close_on(ts, r.when);
        ts.vcpu = gcpu;
        snapshot(ts, r.when);
      }
      return;
    }
    if (ts.phase == kPhPending || ts.phase == kPhWaiting) {
      // Reached the lane without a wake in between: the whole chain was
      // runnable-wait (and for kPhWaiting, the post-wake tail of it).
      close_off_sub(ts, r.when);
      resolve_chain(ts, /*blocked=*/false);
    }
    ts.phase = kPhOn;
    ts.vcpu = gcpu;
    snapshot(ts, r.when);
  }

  void on_guest_wake(const sim::TraceRecord& r) {
    // a = task, b = target gcpu
    if (r.a < 0) return;
    TaskState& ts = task(r.a);
    if (ts.phase == kPhOn) return;  // spurious (already running)
    if (ts.phase == kPhPending) {
      // A wake proves the chain so far was a voluntary block.
      close_off_sub(ts, r.when);
      resolve_chain(ts, /*blocked=*/true);
      ts.phase = kPhWaiting;
      ts.vcpu = r.b;
      snapshot(ts, r.when);
      return;
    }
    if (ts.phase == kPhWaiting) {
      if (ts.vcpu != r.b) {
        close_off_sub(ts, r.when);
        ts.vcpu = r.b;
        snapshot(ts, r.when);
      }
      return;
    }
    ts.phase = kPhWaiting;  // cold start mid-wake
    ts.vcpu = r.b;
    snapshot(ts, r.when);
  }

  void on_migrate(const sim::TraceRecord& r) {
    // a = task, b = to gcpu, c = from gcpu, note = charged penalty (ns)
    if (r.a < 0) return;
    TaskState& ts = task(r.a);
    ts.mig_debt += std::atoll(r.note.c_str());
    if (ts.phase == kPhPending || ts.phase == kPhWaiting) {
      if (ts.vcpu != r.b) {
        close_off_sub(ts, r.when);
        ts.vcpu = r.b;
        snapshot(ts, r.when);
      }
    } else if (ts.phase == kPhUnknown) {
      ts.vcpu = r.b;
    }
  }

  void on_req_begin(const sim::TraceRecord& r) {
    // a = req id, b = SLO class, c = task
    if (r.c < 0) return;
    TaskState& ts = task(r.c);
    // Boundary first (with req_active still false / previous span closed),
    // so nothing before the begin instant is ever charged to this span.
    if (ts.phase == kPhOn) {
      close_on(ts, r.when);
      snapshot(ts, r.when);
    } else if (ts.phase == kPhPending || ts.phase == kPhWaiting) {
      close_off_sub(ts, r.when);
      snapshot(ts, r.when);
    }
    ts.req_active = true;
    ts.req_cls = r.b >= 0 ? r.b : 0;
    for (int c = 0; c < kNumCauses; ++c) ts.causes[c] = 0;
    // The bracket sits at the service start; the note carries the
    // accept-queue wait (ns) the request spent before any task touched it.
    // Back-date the span and pre-charge the wait so the end-to-end total
    // still covers arrival -> completion, exactly.
    const sim::Duration qwait = std::atoll(r.note.c_str());
    ts.req_begin = r.when - qwait;
    ts.causes[static_cast<int>(Cause::kQueueWait)] = qwait;
  }

  void on_req_end(const sim::TraceRecord& r) {
    const int cls = r.b >= 0 ? r.b : 0;
    ensure_class(cls);
    ForensicsClassResult& cr = out.classes[static_cast<std::size_t>(cls)];
    if (r.c < 0) {  // no task to attribute to: report, never charge
      ++cr.truncated;
      return;
    }
    TaskState& ts = task(r.c);
    if (!ts.req_active) {
      // No kReqBegin was seen for this span: report, never charge.
      ++cr.truncated;
      return;
    }
    if (ts.phase == kPhOn) {
      close_on(ts, r.when);
      snapshot(ts, r.when);
    } else if (ts.phase == kPhPending || ts.phase == kPhWaiting) {
      close_off_sub(ts, r.when);
      resolve_chain(ts, /*blocked=*/false);
      snapshot(ts, r.when);
    }
    if (out.head_truncated_at >= 0 && ts.req_begin < out.head_truncated_at) {
      // The span began before the retained ring head: the scheduler
      // evidence inside it is partial. Report, never charge (the segment
      // state above still had to be settled to stay consistent).
      ++cr.truncated;
      ts.req_active = false;
      return;
    }
    const sim::Duration total = r.when - ts.req_begin;
    sim::Duration charged = 0;
    for (int c = 0; c < kNumCauses; ++c) charged += ts.causes[c];
    // Cold starts (span opened before the replay knew the task's state)
    // leave a gap; it lands in `untracked` so the sum stays exact.
    if (total > charged) {
      ts.causes[static_cast<int>(Cause::kUntracked)] += total - charged;
    }
    for (int c = 0; c < kNumCauses; ++c) cr.causes[c].add(ts.causes[c]);
    ++cr.spans;
    const std::int64_t idx = window > 0 ? r.when / window : 0;
    if (violating[static_cast<std::size_t>(cls)].count(idx) != 0) {
      auto wit = std::find_if(
          cr.windows.begin(), cr.windows.end(),
          [idx](const ForensicsWindow& w) { return w.index == idx; });
      if (wit == cr.windows.end()) {
        ForensicsWindow w;
        w.index = idx;
        cr.windows.push_back(w);
        wit = cr.windows.end() - 1;
      }
      ++wit->requests;
      if (total > cr.spec.threshold) {
        ++wit->violations;
        for (int c = 0; c < kNumCauses; ++c) {
          wit->causes[c] += ts.causes[c];
        }
      }
    }
    ts.req_active = false;
  }

  void on_hv(const sim::TraceRecord& r) {
    VcpuState& v = vc(r.a);
    switch (r.kind) {
      case sim::TraceKind::kHvSchedule:
        if (v.open_steal >= 0) {
          v.steal[v.open_steal].stop(r.when);
          if (v.open_steal == kStLhp) lhp_dec(r.when);
          v.open_steal = -1;
        }
        v.run.start(r.when);
        pending_cls[static_cast<std::size_t>(r.a)] = -1;
        break;
      case sim::TraceKind::kHvPreempt: {
        v.run.stop(r.when);
        v.sa.stop(r.when);
        int cls = pending_cls[static_cast<std::size_t>(r.a)];
        if (cls >= 0) {
          pending_cls[static_cast<std::size_t>(r.a)] = -1;
        } else if (r.note == "throttle") {
          cls = kStThrottle;
        } else {
          cls = kStOther;
        }
        if (v.open_steal < 0) {
          v.open_steal = cls;
          v.steal[cls].start(r.when);
          if (cls == kStLhp) lhp_inc(r.when);
        }
        break;
      }
      case sim::TraceKind::kHvBlock:
        v.run.stop(r.when);
        v.sa.stop(r.when);
        if (v.open_steal >= 0) {
          v.steal[v.open_steal].stop(r.when);
          if (v.open_steal == kStLhp) lhp_dec(r.when);
          v.open_steal = -1;
        }
        pending_cls[static_cast<std::size_t>(r.a)] = -1;
        break;
      case sim::TraceKind::kHvWake:
        // Runnable-wait half of steal time (often zero-length).
        if (!v.run.active() && v.open_steal < 0) {
          v.open_steal = kStOther;
          v.steal[kStOther].start(r.when);
        }
        break;
      case sim::TraceKind::kSaSend:
        if (v.run.active()) v.sa.start(r.when);
        break;
      case sim::TraceKind::kSaAck:
        v.sa.stop(r.when);
        break;
      case sim::TraceKind::kLhp:
        pending_cls[static_cast<std::size_t>(r.a)] = kStLhp;
        break;
      case sim::TraceKind::kLwp:
        pending_cls[static_cast<std::size_t>(r.a)] = kStLwp;
        break;
      default:
        break;
    }
  }
};

}  // namespace

std::vector<sim::TraceRecord> with_request_spans(
    const std::vector<sim::TraceRecord>& records,
    const std::vector<ReqSpan>& spans) {
  // Bracket k is span k/2's begin (k even) or end (k odd). The begin sits
  // at the service start; a nonzero accept-queue wait rides in the note
  // (decimal ns) and the analyzer back-dates the span by it (see header).
  const auto when = [&spans](std::uint32_t k) {
    const ReqSpan& s = spans[k / 2];
    return k % 2 == 0 ? s.begin + s.qwait : s.end;
  };
  // Order by (when, k): brackets at equal times stay in span order, each
  // begin ahead of its own end (ab back-dates begins to the arrival
  // instant, so they need sorting). Sorting 4-byte ids in place, not
  // stable-sorting records, keeps a serving run's peak memory down.
  std::vector<std::uint32_t> order(2 * spans.size());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(),
            [&when](std::uint32_t x, std::uint32_t y) {
              return when(x) != when(y) ? when(x) < when(y) : x < y;
            });
  std::vector<sim::TraceRecord> merged;
  merged.reserve(records.size() + order.size());
  auto ring = records.begin();
  for (const std::uint32_t k : order) {
    const sim::Time t = when(k);
    // Ring records first on ties: where a bracket recorded at that instant
    // would have landed.
    while (ring != records.end() && ring->when <= t) merged.push_back(*ring++);
    const ReqSpan& s = spans[k / 2];
    sim::TraceRecord r{t,
                       k % 2 == 0 ? sim::TraceKind::kReqBegin
                                  : sim::TraceKind::kReqEnd,
                       s.req, s.cls, s.task, ""};
    if (k % 2 == 0 && s.qwait > 0) {
      // A 15-char note holds any wait below ~11.5 simulated days;
      // TraceNote truncates (never overflows) beyond that.
      char buf[24];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(s.qwait));
      r.note = buf;
    }
    merged.push_back(r);
  }
  merged.insert(merged.end(), ring, records.end());
  return merged;
}

ForensicsResult request_forensics(const std::vector<sim::TraceRecord>& records,
                                  const TraceMeta& meta, const SloResult& slo,
                                  const std::string& vm) {
  Analyzer az{slo, slo.window > 0 ? slo.window : SloTracker::kDefaultWindow};
  az.out.window = az.window;
  int max_vcpu = -1;
  for (const VcpuInfo& v : meta.vcpus) max_vcpu = std::max(max_vcpu, v.id);
  az.vcpus.resize(static_cast<std::size_t>(max_vcpu + 1));
  az.is_fg.assign(static_cast<std::size_t>(max_vcpu + 1), 0);
  az.pending_cls.assign(static_cast<std::size_t>(max_vcpu + 1), -1);
  az.lane.assign(static_cast<std::size_t>(max_vcpu + 1), -1);
  for (const VcpuInfo& v : meta.vcpus) {
    if (v.vm == vm) az.is_fg[static_cast<std::size_t>(v.id)] = 1;
  }
  int max_task = -1;
  for (const TaskInfo& t : meta.tasks) max_task = std::max(max_task, t.id);
  az.tasks.resize(static_cast<std::size_t>(max_task + 1));
  az.out.head_truncated_at = retained_head(records, meta);
  // Classes (and their violating-window sets) exist up front so an
  // all-truncated capture still reports per-class truncation counts.
  for (std::size_t i = 0; i < slo.classes.size(); ++i) {
    az.ensure_class(static_cast<int>(i));
  }

  for (const sim::TraceRecord& r : records) {
    switch (r.kind) {
      case sim::TraceKind::kGuestSwitch:
        if (az.fg_vcpu(r.a)) az.on_guest_switch(r);
        break;
      case sim::TraceKind::kGuestWake:
        if (az.fg_vcpu(r.b)) az.on_guest_wake(r);
        break;
      case sim::TraceKind::kMigrate:
        if (az.fg_vcpu(r.b)) az.on_migrate(r);
        break;
      case sim::TraceKind::kReqBegin:
        az.on_req_begin(r);
        break;
      case sim::TraceKind::kReqEnd:
        az.on_req_end(r);
        break;
      case sim::TraceKind::kHvSchedule:
      case sim::TraceKind::kHvPreempt:
      case sim::TraceKind::kHvBlock:
      case sim::TraceKind::kHvWake:
      case sim::TraceKind::kSaSend:
      case sim::TraceKind::kSaAck:
      case sim::TraceKind::kLhp:
      case sim::TraceKind::kLwp:
        if (az.fg_vcpu(r.a)) az.on_hv(r);
        break;
      default:
        break;
    }
  }

  // Spans still open when the trace ends are reported, never charged.
  for (TaskState& ts : az.tasks) {
    if (ts.req_active) {
      az.ensure_class(ts.req_cls);
      ++az.out.classes[static_cast<std::size_t>(ts.req_cls)].open;
    }
  }
  for (ForensicsClassResult& c : az.out.classes) {
    std::sort(c.windows.begin(), c.windows.end(),
              [](const ForensicsWindow& x, const ForensicsWindow& y) {
                return x.index < y.index;
              });
  }
  return az.out;
}

// ---------------------------------------------------------------------------
// JSON of the cause histograms
// ---------------------------------------------------------------------------

void CausesByName::write(JsonWriter& w, const char* key,
                         const LatencyHistogram (&causes)[kNumCauses]) {
  w.key(key);
  w.begin_array();
  for (int i = 0; i < kNumCauses; ++i) {
    w.begin_object();
    w.field("name", std::string(cause_name(static_cast<Cause>(i))));
    HistogramFields::write(w, key, causes[i]);
    w.end_object();
  }
  w.end_array();
}

bool CausesByName::read(const JsonValue& v, const char* key,
                        const std::string& what,
                        LatencyHistogram (*causes)[kNumCauses],
                        std::string* err) {
  const JsonValue* list = v.find(key);
  if (list == nullptr || !list->is_array()) {
    return fail(err, what + ": missing or bad '" + key + "'");
  }
  for (const JsonValue& hv : list->items) {
    if (!hv.is_object()) return fail(err, "forensics cause is not an object");
    std::string name;
    if (!read_field(hv, "name", "forensics cause", &name, err)) return false;
    int ci = 0;
    while (ci < kNumCauses && name != cause_name(static_cast<Cause>(ci))) ++ci;
    if (ci == kNumCauses) {
      return fail(err, "forensics cause: unknown '" + name + "'");
    }
    if (!HistogramFields::read(hv, key, "forensics cause '" + name + "'",
                               &(*causes)[ci], err)) {
      return false;
    }
  }
  return true;
}

}  // namespace irs::obs
