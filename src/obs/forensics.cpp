#include "src/obs/forensics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "src/obs/runstate.h"

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

/// The cause each StealClass charges.
constexpr Cause kStealCause[kNumStealClasses] = {
    Cause::kLhp, Cause::kLwp, Cause::kThrottle, Cause::kSteal};

/// Stopwatches over one vCPU's runstate, driven by the replay's hooks.
struct VcpuState {
  Accum run;                        // holds a pCPU
  Accum sa;                         // running inside an SA grace window
  Accum steal[kNumStealClasses];    // runnable without a pCPU, by class
};

/// The closed in-request sub-spans of an off-CPU chain whose cause
/// (blocked vs ready-wait) is not yet known: both candidate charges are
/// summed from accumulator deltas as each sub-span closes, so resolution
/// is a pure re-labeling.
struct ChainCharge {
  sim::Duration steal[kNumStealClasses] = {};  // ready-wait resolution
  sim::Duration ready_wait = 0;                // ready-wait resolution
  sim::Duration lhp = 0;                       // blocked resolution
  sim::Duration block = 0;                     // blocked resolution
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
  // Accumulator snapshots of `seg_vcpu` taken at seg_start:
  int seg_vcpu = -1;
  sim::Duration run0 = 0;
  sim::Duration sa0 = 0;
  sim::Duration steal0[kNumStealClasses] = {};
  sim::Duration lhp_active0 = 0;
  ChainCharge chain;  // the open off-chain's closed sub-spans
  // Active request span:
  bool req_active = false;
  sim::Time req_begin = 0;
  std::int32_t req_cls = 0;
  sim::Duration causes[kNumCauses] = {};
  // Unconsumed migration cache penalty (charged against future run time).
  sim::Duration mig_debt = 0;
};

/// Per-class bookkeeping beside ForensicsClassResult, O(1) per span.
struct ClassTally {
  /// Window number -> its row in ForensicsClassResult::windows, or -1 for
  /// a window that did not violate.
  std::vector<std::int32_t> row;
  /// Spans whose charge to each cause was 0: added in bulk at the end
  /// (add_zeros), since most of a span's causes are 0.
  std::uint64_t zeros[kNumCauses] = {};
};

struct Analyzer {
  const SloResult& slo;
  sim::Duration window = 0;
  Accum lhp_active{};  // >= 1 LHP-classified steal window open in the VM
  int lhp_open = 0;
  // Flat id-indexed state: vCPU and task ids are small dense integers
  // (TraceMeta enumerates them), so the per-record lookups on the replay
  // hot path are array loads, not tree walks. The vCPU arrays are sized
  // together up front from the meta; every handler reaches them only
  // through the bounds-checked fg_vcpu() test, so ids beyond the meta
  // (foreign or synthetic records) are simply not foreground. Task state
  // and the runstate replay grow on demand.
  RunstateReplay runstate{};        // fg vCPUs' spans and steal windows
  std::vector<VcpuState> vcpus{};   // global vCPU id -> state
  std::vector<signed char> is_fg{}; // global vCPU id -> foreground?
  std::vector<std::int32_t> lane{}; // fg gcpu -> on-lane task, -1 idle
  std::vector<TaskState> tasks{};   // task id -> state
  ForensicsResult out{};
  std::vector<ClassTally> tally{};  // parallel to out.classes

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
      // Every violating window gets its row up front; the rows no charged
      // span completes in are dropped at the end. The SLO windows are the
      // run's own, so their numbers stay below its end over the window.
      std::vector<ForensicsWindow>& rows = out.classes.back().windows;
      ClassTally t;
      if (i < slo.classes.size()) {
        for (const SloWindow& w : slo.classes[i].windows) {
          if (w.index < 0 || burn_rate(w, slo.classes[i].spec) <= 1.0) {
            continue;
          }
          const auto idx = static_cast<std::size_t>(w.index);
          if (idx >= t.row.size()) t.row.resize(idx + 1, -1);
          t.row[idx] = static_cast<std::int32_t>(rows.size());
          rows.push_back(ForensicsWindow{.index = w.index});
        }
      }
      tally.push_back(std::move(t));
    }
  }

  VcpuState& vc(int v) { return vcpus[static_cast<std::size_t>(v)]; }

  /// Snapshot the accumulators of ts.vcpu at t and restart the segment.
  void snapshot(TaskState& ts, sim::Time t) {
    // Starting or stopping an accumulator at t leaves its value at t
    // unchanged, so a second snapshot at one instant of one vCPU (a span
    // ending where the next begins, say) would read the same values.
    if (ts.seg_start == t && ts.seg_vcpu == ts.vcpu) return;
    ts.seg_start = t;
    ts.seg_vcpu = ts.vcpu;
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

  /// Settle an on-lane segment [seg_start, t] and restart it at t, as
  /// snapshot(ts, t) would, from the values just read: charge run / SA /
  /// steal / migration overlaps to the active request (when there is one)
  /// and consume migration debt either way.
  void close_on(TaskState& ts, sim::Time t) {
    if (ts.seg_start < 0 || t <= ts.seg_start) {
      snapshot(ts, t);
      return;
    }
    const sim::Duration dur = t - ts.seg_start;
    sim::Duration run = 0, sa = 0, steal[kNumStealClasses] = {};
    sim::Duration d_run = 0, d_sa = 0, d_steal[kNumStealClasses] = {};
    sim::Duration steal_sum = 0;
    if (fg_vcpu(ts.vcpu)) {
      VcpuState& v = vc(ts.vcpu);
      run = v.run.value(t);
      sa = v.sa.value(t);
      d_run = run - ts.run0;
      d_sa = sa - ts.sa0;
      for (int c = 0; c < kNumStealClasses; ++c) {
        steal[c] = v.steal[c].value(t);
        d_steal[c] = steal[c] - ts.steal0[c];
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
    ts.seg_start = t;
    ts.seg_vcpu = ts.vcpu;
    ts.lhp_active0 = lhp_active.value(t);
    ts.run0 = run;
    ts.sa0 = sa;
    for (int c = 0; c < kNumStealClasses; ++c) ts.steal0[c] = steal[c];
  }

  /// Close the current off-chain sub-span [seg_start, t] and, inside a
  /// request, add both candidate charges to the chain; resolution happens
  /// when the chain's cause is known.
  void close_off_sub(TaskState& ts, sim::Time t) {
    if (ts.seg_start < 0 || t <= ts.seg_start || !ts.req_active) return;
    const sim::Duration dur = t - ts.seg_start;
    const sim::Duration lhp =
        std::min(lhp_active.value(t) - ts.lhp_active0, dur);
    ts.chain.lhp += lhp;
    ts.chain.block += dur - lhp;
    sim::Duration steal_sum = 0;
    if (fg_vcpu(ts.vcpu)) {
      VcpuState& v = vc(ts.vcpu);
      for (int c = 0; c < kNumStealClasses; ++c) {
        const sim::Duration d = v.steal[c].value(t) - ts.steal0[c];
        ts.chain.steal[c] += d;
        steal_sum += d;
      }
    }
    if (dur > steal_sum) ts.chain.ready_wait += dur - steal_sum;
  }

  /// The chain's cause became known: `blocked` chains (ended by a wake)
  /// split into lock-freeze overlap (lhp) + voluntary block; ready chains
  /// (reached the lane with no wake) split into runqueue-vCPU steal
  /// overlaps + genuine CPU contention (ready_wait).
  void resolve_chain(TaskState& ts, bool blocked) {
    if (blocked) {
      ts.causes[static_cast<int>(Cause::kLhp)] += ts.chain.lhp;
      ts.causes[static_cast<int>(Cause::kBlock)] += ts.chain.block;
    } else {
      for (int c = 0; c < kNumStealClasses; ++c) {
        ts.causes[static_cast<int>(kStealCause[c])] += ts.chain.steal[c];
      }
      ts.causes[static_cast<int>(Cause::kReadyWait)] += ts.chain.ready_wait;
    }
    ts.chain = {};
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

  void on_req_begin(const sim::TraceRecord& r, sim::Duration qwait) {
    // a = req id, b = SLO class, c = task
    if (r.c < 0) return;
    TaskState& ts = task(r.c);
    // Boundary first (with req_active still false / previous span closed),
    // so nothing before the begin instant is ever charged to this span.
    if (ts.phase == kPhOn) {
      close_on(ts, r.when);
    } else if (ts.phase == kPhPending || ts.phase == kPhWaiting) {
      close_off_sub(ts, r.when);
      snapshot(ts, r.when);
    }
    ts.req_active = true;
    ts.req_cls = r.b >= 0 ? r.b : 0;
    for (int c = 0; c < kNumCauses; ++c) ts.causes[c] = 0;
    // The bracket sits at the service start; `qwait` is the accept-queue
    // wait the request spent before any task touched it. Back-date the
    // span and pre-charge the wait so the end-to-end total still covers
    // arrival -> completion, exactly.
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
    ClassTally& tl = tally[static_cast<std::size_t>(cls)];
    for (int c = 0; c < kNumCauses; ++c) {
      // add() records a negative value as 0 too.
      if (ts.causes[c] > 0) {
        cr.causes[c].add(ts.causes[c]);
      } else {
        ++tl.zeros[c];
      }
    }
    ++cr.spans;
    const std::int64_t idx = r.when / window;
    if (idx >= 0 && idx < static_cast<std::int64_t>(tl.row.size()) &&
        tl.row[static_cast<std::size_t>(idx)] >= 0) {
      ForensicsWindow& w = cr.windows[static_cast<std::size_t>(
          tl.row[static_cast<std::size_t>(idx)])];
      ++w.requests;
      if (total > cr.spec.threshold) {
        ++w.violations;
        for (int c = 0; c < kNumCauses; ++c) w.causes[c] += ts.causes[c];
      }
    }
    ts.req_active = false;
  }

  // --- runstate hooks (see runstate.h) ------------------------------------

  void span_open(int v, const CpuSpan& s) { vc(v).run.start(s.start); }
  void span_close(int v, const CpuSpan& /*s*/, sim::Time end) {
    vc(v).run.stop(end);
    vc(v).sa.stop(end);
  }
  void window_open(int v, const StealWindow& w) {
    vc(v).steal[static_cast<int>(w.cls)].start(w.start);
    if (w.cls == StealClass::kLhp && lhp_open++ == 0) {
      lhp_active.start(w.start);
    }
  }
  void window_close(int v, const StealWindow& w, sim::Time end) {
    vc(v).steal[static_cast<int>(w.cls)].stop(end);
    if (w.cls == StealClass::kLhp && --lhp_open == 0) lhp_active.stop(end);
  }
};

}  // namespace

SpanMerge::SpanMerge(sim::TraceView ring, const std::vector<ReqSpan>& spans)
    : ring_(ring.older.data()),
      ring_end_(ring.older.data() + ring.older.size()),
      newer_(ring.newer),
      spans_(spans) {
  begins_.reserve(spans.size());
  ends_.reserve(spans.size());
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    begins_.push_back({spans[i].begin + spans[i].qwait, i});
    ends_.push_back({spans[i].end, i});
  }
  // The keys start in span order, so a stable sort by time is the order
  // by (time, span).
  const auto by_time = [](const Key& x, const Key& y) {
    return x.when < y.when;
  };
  std::stable_sort(begins_.begin(), begins_.end(), by_time);
  if (!std::is_sorted(ends_.begin(), ends_.end(), by_time)) {
    std::stable_sort(ends_.begin(), ends_.end(), by_time);
  }
  find_next_bracket();
}

void SpanMerge::find_next_bracket() {
  // A begin goes first unless the end is earlier, or equally early and of
  // an earlier span (k = 2*span < 2*span'+1 exactly when span <= span').
  const std::size_t n = spans_.size();
  next_is_begin_ =
      nb_ < n && (ne_ == n || begins_[nb_].when < ends_[ne_].when ||
                  (begins_[nb_].when == ends_[ne_].when &&
                   begins_[nb_].span <= ends_[ne_].span));
  next_when_ = next_is_begin_ ? begins_[nb_].when
               : ne_ < n      ? ends_[ne_].when
                              : std::numeric_limits<sim::Time>::max();
}

const sim::TraceRecord* SpanMerge::next(sim::Duration* qwait) {
  *qwait = 0;
  if (ring_ == ring_end_ && !newer_.empty()) {
    ring_ = newer_.data();
    ring_end_ = newer_.data() + newer_.size();
    newer_ = {};
  }
  if (ring_ != ring_end_ && ring_->when <= next_when_) {
    const sim::TraceRecord* r = ring_++;
    if (r->kind == sim::TraceKind::kReqBegin) {
      *qwait = std::atoll(r->note.c_str());
    }
    return r;
  }
  if (nb_ == spans_.size() && ne_ == spans_.size()) return nullptr;
  const Key& k = next_is_begin_ ? begins_[nb_++] : ends_[ne_++];
  const ReqSpan& s = spans_[k.span];
  bracket_.when = k.when;
  bracket_.a = s.req;
  bracket_.b = s.cls;
  bracket_.c = s.task;
  if (next_is_begin_) {
    bracket_.kind = sim::TraceKind::kReqBegin;
    *qwait = s.qwait;
  } else {
    bracket_.kind = sim::TraceKind::kReqEnd;
  }
  find_next_bracket();
  return &bracket_;
}

std::vector<sim::TraceRecord> with_request_spans(
    const std::vector<sim::TraceRecord>& records,
    const std::vector<ReqSpan>& spans) {
  std::vector<sim::TraceRecord> merged;
  merged.reserve(records.size() + 2 * spans.size());
  SpanMerge cursor({records, {}}, spans);
  sim::Duration qwait = 0;
  while (const sim::TraceRecord* r = cursor.next(&qwait)) {
    merged.push_back(*r);
    if (qwait > 0) {
      // A 15-char note holds any wait below ~11.5 simulated days;
      // TraceNote truncates (never overflows) beyond that.
      char buf[24];
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(qwait));
      merged.back().note = buf;
    }
  }
  return merged;
}

ForensicsResult request_forensics(sim::TraceView ring,
                                  const std::vector<ReqSpan>& spans,
                                  const TraceMeta& meta, const SloResult& slo,
                                  const std::string& vm) {
  Analyzer az{slo, slo.window > 0 ? slo.window : SloTracker::kDefaultWindow};
  az.out.window = az.window;
  int max_vcpu = -1;
  for (const VcpuInfo& v : meta.vcpus) max_vcpu = std::max(max_vcpu, v.id);
  az.vcpus.resize(static_cast<std::size_t>(max_vcpu + 1));
  az.is_fg.assign(static_cast<std::size_t>(max_vcpu + 1), 0);
  az.lane.assign(static_cast<std::size_t>(max_vcpu + 1), -1);
  for (const VcpuInfo& v : meta.vcpus) {
    if (v.vm == vm) az.is_fg[static_cast<std::size_t>(v.id)] = 1;
  }
  int max_task = -1;
  for (const TaskInfo& t : meta.tasks) max_task = std::max(max_task, t.id);
  az.tasks.resize(static_cast<std::size_t>(max_task + 1));
  // The ring never holds brackets, and a dump's `older` is all of it.
  az.out.head_truncated_at = retained_head(ring.older, meta);
  // Classes (and their violating-window rows) exist up front so an
  // all-truncated capture still reports per-class truncation counts.
  for (std::size_t i = 0; i < slo.classes.size(); ++i) {
    az.ensure_class(static_cast<int>(i));
  }

  SpanMerge cursor(ring, spans);
  sim::Duration qwait = 0;
  while (const sim::TraceRecord* rec = cursor.next(&qwait)) {
    const sim::TraceRecord& r = *rec;
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
        az.on_req_begin(r, qwait);
        break;
      case sim::TraceKind::kReqEnd:
        az.on_req_end(r);
        break;
      case sim::TraceKind::kSaSend:
        // An SA grace window runs while the vCPU holds its pCPU.
        if (az.fg_vcpu(r.a) && az.vc(r.a).run.active()) {
          az.vc(r.a).sa.start(r.when);
        }
        break;
      case sim::TraceKind::kSaAck:
        if (az.fg_vcpu(r.a)) az.vc(r.a).sa.stop(r.when);
        break;
      default:  // the runstate records; step() ignores any other kind
        if (az.fg_vcpu(r.a)) az.runstate.step(r, az);
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
  for (std::size_t i = 0; i < az.out.classes.size(); ++i) {
    ForensicsClassResult& c = az.out.classes[i];
    for (int k = 0; k < kNumCauses; ++k) {
      c.causes[k].add_zeros(az.tally[i].zeros[k]);
    }
    std::erase_if(c.windows,
                  [](const ForensicsWindow& w) { return w.requests == 0; });
    std::sort(c.windows.begin(), c.windows.end(),
              [](const ForensicsWindow& x, const ForensicsWindow& y) {
                return x.index < y.index;
              });
  }
  return az.out;
}

ForensicsResult request_forensics(const std::vector<sim::TraceRecord>& records,
                                  const TraceMeta& meta, const SloResult& slo,
                                  const std::string& vm) {
  return request_forensics({records, {}}, {}, meta, slo, vm);
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
