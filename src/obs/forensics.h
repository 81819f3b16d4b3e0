// Per-request causal forensics: latency decomposition and SLO-violation
// root-cause attribution.
//
// PR 7's SloTracker says *that* a window violated its SLO and obs::attribute
// says *who* absorbed steal time run-wide — this module says *why a specific
// request was slow*. Server workloads (jbb, ab, the front-end; see
// wl/serving.h) log a ReqSpan per request into a side log (one cheap
// append — nothing rides the trace ring at runtime);
// with_request_spans() renders the log as
// kReqBegin/kReqEnd records (request id + SLO class in a/b, serving task
// in c) merged into the trace snapshot, and request_forensics() walks that
// merged stream once — the same snapshot obs::attribute consumes — replays
// the scheduler state around each request span, and splits its end-to-end
// latency into named causal segments:
//
//   run        on-CPU compute (vCPU held a pCPU, no SA grace pending)
//   ready_wait runnable in the guest runqueue, vCPU present but busy
//   lhp        stalled behind lock-holder preemption: on a vCPU frozen in an
//              LHP-classified steal window, queued on one, or blocked on a
//              lock while the VM had an LHP freeze in progress
//   lwp        on/behind a vCPU frozen in an LWP-classified steal window
//   steal      unclassified hypervisor steal (preempt/runnable-wait windows
//              with no lock classification)
//   throttle   steal windows opened by a credit throttle (vCPU was OVER)
//   migration  post-migration cache-refill transient (charged from the
//              penalty the guest model applied, carried in kMigrate notes)
//   sa_notify  running inside an SA notify→ack grace window
//   block      voluntarily off-CPU (lock wait / sleep) with no LHP freeze
//   untracked  remainder: pre-trace cold start or states the replay cannot
//              classify — kept so segments sum *exactly* to the latency
//   queue_wait accept-queue wait before service start (open-loop front-end
//              workloads back-date the span to the arrival instant and
//              carry the wait in ReqSpan::qwait) — first-class so
//              ready-wait and accept-queue wait separate cleanly
//
// The decomposition is exact by construction: every segment is an overlap
// of the span with a replayed scheduler state, the remainder goes to
// `untracked`, and per class each cause histogram records one value per
// request (zeros included) — so summing the per-cause histogram sums
// reproduces the total latency sum bit-exactly, which tests assert.
//
// Like every obs result, ForensicsResult is integer-exact, merges across
// a sweep's runs bit-identically (fold_forensics), serializes round-trip
// (forensics_json / forensics_from_value), and condenses to one FNV-1a
// digest() word for cross-process identity checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/chrome_trace.h"
#include "src/obs/json.h"
#include "src/obs/json_reader.h"
#include "src/obs/slo.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace irs::obs {

/// Causal segment identifiers. Order is the serialization order; new causes
/// append (the JSON schema stores names, so old captures stay readable).
enum class Cause : int {
  kRun = 0,
  kReadyWait,
  kLhp,
  kLwp,
  kSteal,
  kThrottle,
  kMigration,
  kSaNotify,
  kBlock,
  kUntracked,
  kQueueWait,
};
inline constexpr int kNumCauses = static_cast<int>(Cause::kQueueWait) + 1;

/// Stable short name ("run", "ready_wait", ... "queue_wait").
const char* cause_name(Cause c);

/// Per-cause latency totals of the SLO-violating requests that completed in
/// one violating window — the ranked root-cause table is sorted from these.
struct ForensicsWindow {
  std::int64_t index = 0;       // same numbering as SloWindow::index
  std::uint64_t requests = 0;   // spans completing in this window
  std::uint64_t violations = 0; // of those, latency > spec.threshold
  sim::Duration causes[kNumCauses] = {};  // totals over violating spans

  bool operator==(const ForensicsWindow& o) const;
};

/// One SLO class's forensic capture: per-cause latency distributions over
/// every completed span, plus root-cause tables for violating windows.
struct ForensicsClassResult {
  std::string name;
  SloSpec spec;
  /// One histogram per cause; each records one value per completed span
  /// (zeros included), so counts match `spans` and the cause sums add up to
  /// the exact total latency.
  LatencyHistogram causes[kNumCauses];
  /// Violating windows only (error-budget burn > 1), ascending by index.
  std::vector<ForensicsWindow> windows;
  std::uint64_t spans = 0;       // fully-charged completed spans
  std::uint64_t truncated = 0;   // spans that began before the ring head
  std::uint64_t open = 0;        // spans still open at trace end

  /// Total latency charged to `c` across all completed spans (exact).
  [[nodiscard]] sim::Duration cause_total(Cause c) const;

  bool operator==(const ForensicsClassResult& o) const;
};

/// The full forensic capture of one run — what RunResult carries,
/// result_json serializes, and the sweep folder merges.
struct ForensicsResult {
  sim::Duration window = 0;        // violation-window length; 0 = untracked
  /// retained_head(): when the ring wrapped, the oldest retained ring
  /// record — scheduler evidence before this instant is incomplete, spans
  /// beginning before it are reported as truncated, never charged.
  /// -1 = nothing dropped.
  sim::Time head_truncated_at = -1;
  std::vector<ForensicsClassResult> classes;

  [[nodiscard]] bool empty() const { return classes.empty(); }
  /// FNV-1a over every field. 0 is reserved for the empty result.
  [[nodiscard]] std::uint64_t digest() const;
  bool operator==(const ForensicsResult& o) const;
};

/// One completed request span, captured by the serving workloads into a
/// plain side log instead of the trace ring: recording costs one small
/// fixed-size append per request (no per-request ring traffic — the
/// bench_report forensics_overhead gate rides on this), and the
/// analysis/export path re-synthesizes the kReqBegin/kReqEnd records from
/// the log with with_request_spans().
struct ReqSpan {
  sim::Time begin = 0;       // service start (jbb) / arrival (ab, frontend)
  sim::Time end = 0;         // completion — the SLO-recording instant
  std::int32_t req = -1;     // request id, unique per workload
  std::int32_t cls = 0;      // SLO class
  std::int32_t task = -1;    // serving guest task id
  /// Accept-queue wait inside [begin, end): the span spent [begin,
  /// begin+qwait) queued before any task touched it. The replay charges it
  /// to Cause::kQueueWait and starts the scheduler decomposition at
  /// begin+qwait. 0 for the closed-loop workloads (jbb/ab).
  sim::Duration qwait = 0;
};

/// Render `spans` as kReqBegin/kReqEnd records and merge them into a
/// trace snapshot (oldest first), preserving its order. The brackets are
/// ordered by time (ties in span order, each begin ahead of its own end),
/// and at equal timestamps they follow every ring record, the place a
/// bracket recorded at that instant would have taken.
/// A span with qwait > 0 synthesizes its kReqBegin at the *service start*
/// (begin + qwait) carrying the wait as a decimal-ns note — the same idiom
/// kMigrate uses for its penalty — so the replay never mischarges worker
/// activity that happened while the request sat in the accept queue.
std::vector<sim::TraceRecord> with_request_spans(
    const std::vector<sim::TraceRecord>& records,
    const std::vector<ReqSpan>& spans);

/// Walk `records` (snapshot order: oldest first) once and decompose
/// every request span of the VM named `vm`. `meta` supplies the vCPU→VM
/// mapping and the dropped count; `slo` supplies class names/specs, the
/// window length, and which windows violated (burn rate > 1) — pass an
/// empty SloResult to decompose without violation tables.
/// Request spans ride in as the synthesized bracket records of
/// with_request_spans(); spans that began before the retained ring head
/// (head_truncated_at) have partial scheduler evidence and are reported as
/// `truncated`, never charged.
ForensicsResult request_forensics(const std::vector<sim::TraceRecord>& records,
                                  const TraceMeta& meta, const SloResult& slo,
                                  const std::string& vm = "fg");

/// Exact fold of `r` into `acc` (for sweep averaging): classes match by
/// name and a new one is inserted in name order, histograms merge
/// integer-exactly, windows merge by index, counters add. Folding N runs
/// whose class lists are name-sorted (every run's is) in any order is
/// bit-identical to any other order.
void fold_forensics(ForensicsResult& acc, const ForensicsResult& r);

/// Serialize as one JSON object on an open writer (fixed key order,
/// integers exact). Inverse below round-trips bit-identically.
void forensics_json(JsonWriter& w, const ForensicsResult& f);
bool forensics_from_value(const JsonValue& v, ForensicsResult* out,
                          std::string* err);

}  // namespace irs::obs
