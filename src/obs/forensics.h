// Per-request causal forensics: latency decomposition and SLO-violation
// root-cause attribution.
//
// PR 7's SloTracker says *that* a window violated its SLO and obs::attribute
// says *who* absorbed steal time run-wide — this module says *why a specific
// request was slow*. Server workloads (jbb, ab, the front-end; see
// wl/serving.h) log a ReqSpan per request into a side log (one cheap
// append — nothing rides the trace ring at runtime). SpanMerge is the one
// merge of that log with the trace ring: it reads the ring in place and
// renders each span as kReqBegin/kReqEnd records (request id + SLO class in
// a/b, serving task in c) on the fly, the begin carrying the span's
// accept-queue wait as an integer. request_forensics() walks that merged
// stream once, replays the scheduler state around each request span, and
// splits its end-to-end latency into named causal segments:
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
// Entry points. The runner analyses a run where its ring lies:
// request_forensics(ring view, span log) builds no merged copy. Only a
// dump writes the merge out, with with_request_spans(), each nonzero wait
// as a decimal-ns note. perfbench, the tests and the offline replay call
// request_forensics over such a dump (bench_report times the runner's
// entry point on one split back); that overload feeds the same analyzer
// loop through the same cursor, which reads the notes back.
//
// Like every obs result, ForensicsResult is integer-exact and lists its
// fields once (see fields.h), so it merges across a sweep's runs
// bit-identically (fold_block), serializes round-trip (write_block /
// read_block), and condenses to one FNV-1a digest() word for
// cross-process identity checks.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/obs/chrome_trace.h"
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

/// The cause histograms' JSON, as a field codec (see fields.h):
/// "causes":[{"name":"run",<histogram>},..] in enum order, read back by
/// name, so a capture from before a cause existed leaves it empty.
struct CausesByName {
  static void write(JsonWriter& w, const char* key,
                    const LatencyHistogram (&causes)[kNumCauses]);
  static bool read(const JsonValue& v, const char* key, const std::string& what,
                   LatencyHistogram (*causes)[kNumCauses], std::string* err);
};

/// Per-cause latency totals of the SLO-violating requests that completed in
/// one violating window — the ranked root-cause table is sorted from these.
struct ForensicsWindow {
  std::int64_t index = 0;       // same numbering as SloWindow::index
  std::uint64_t requests = 0;   // spans completing in this window
  std::uint64_t violations = 0; // of those, latency > spec.threshold
  sim::Duration causes[kNumCauses] = {};  // totals over violating spans

  bool operator==(const ForensicsWindow& o) const = default;

  /// A positional row [index,requests,violations,<cause totals>..]. The
  /// causes are in enum order and new ones append, so a row written
  /// before a cause existed is shorter; its missing tail reads as 0.
  static constexpr bool kRow = true;
  static constexpr std::size_t kMinRow = 3;
  template <typename F>
  static void fields(F&& f) {
    f("index", &ForensicsWindow::index, kKeep);
    f("requests", &ForensicsWindow::requests, kSum);
    f("violations", &ForensicsWindow::violations, kSum);
    f("causes", &ForensicsWindow::causes, kSum);
  }
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

  bool operator==(const ForensicsClassResult& o) const = default;

  static constexpr const char* kWhat = "forensics class";
  template <typename F>
  static void fields(F&& f) {
    f("name", &ForensicsClassResult::name, kKeep);
    f("spec", &ForensicsClassResult::spec, kKeep);
    f("spans", &ForensicsClassResult::spans, kSum);
    f("truncated", &ForensicsClassResult::truncated, kSum);
    f("open", &ForensicsClassResult::open, kSum);
    f("causes", &ForensicsClassResult::causes, kSum, CausesByName{});
    f("windows", &ForensicsClassResult::windows, kByIndex);
  }
};

/// The full forensic capture of one run — what RunResult carries,
/// result_json serializes, and the sweep folder merges (see fields.h:
/// classes match by name, histograms merge integer-exactly, windows merge
/// by index, counters add).
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
  [[nodiscard]] std::uint64_t digest() const { return block_digest(*this); }
  bool operator==(const ForensicsResult& o) const = default;

  static constexpr const char* kWhat = "forensics";
  template <typename F>
  static void fields(F&& f) {
    f("window_ns", &ForensicsResult::window, kKeep);
    f("head_truncated_at", &ForensicsResult::head_truncated_at, kMax);
    f("classes", &ForensicsResult::classes, kByName);
  }
};

/// One completed request span, captured by the serving workloads into a
/// plain side log instead of the trace ring: recording costs one small
/// fixed-size append per request (no per-request ring traffic — the
/// bench_report forensics_overhead gate rides on this), and SpanMerge
/// renders the kReqBegin/kReqEnd records from the log at analysis time.
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

/// The merge of a trace ring with a request-span log: the one definition
/// of where request brackets fall among ring records. next() yields the
/// ring's records in place and each span's kReqBegin/kReqEnd bracket,
/// built on the fly, in this order:
///   * brackets by (time, k), where k is 2*span for a begin and 2*span+1
///     for an end: at equal times in span order, each begin ahead of its
///     own end;
///   * at equal times every ring record ahead of the brackets, the place a
///     bracket recorded at that instant would have taken.
/// A span with qwait > 0 puts its kReqBegin at the service start (begin +
/// qwait), so the replay never mischarges worker activity that happened
/// while the request sat in the accept queue, and next() hands the wait
/// out as an integer. A kReqBegin already in the ring (a dump that
/// with_request_spans() wrote out) carries it as a decimal-ns note, which
/// next() reads back.
///
/// Only the begins are sorted: every log wl::Serving writes appends at
/// completion, so its ends are already in order (checked, and sorted too
/// when a log is not). Borrows `ring` and `spans`, which must outlive it.
class SpanMerge {
 public:
  SpanMerge(sim::TraceView ring, const std::vector<ReqSpan>& spans);

  /// The next record, or nullptr at the end; valid until the next call.
  /// *qwait is a kReqBegin's accept-queue wait and 0 for any other record.
  const sim::TraceRecord* next(sim::Duration* qwait);

 private:
  struct Key {
    sim::Time when;
    std::uint32_t span;
  };

  /// Point next_when_ and next_is_begin_ at the earlier of the next begin
  /// and the next end.
  void find_next_bracket();

  const sim::TraceRecord* ring_;      // next ring record
  const sim::TraceRecord* ring_end_;  // end of its segment
  std::span<const sim::TraceRecord> newer_;  // the segment after it
  const std::vector<ReqSpan>& spans_;
  std::vector<Key> begins_;  // (service start, span), sorted
  std::vector<Key> ends_;    // (completion, span), sorted
  std::size_t nb_ = 0;       // next begin
  std::size_t ne_ = 0;       // next end
  sim::Time next_when_ = 0;  // the next bracket's time; the max when none
  bool next_is_begin_ = false;
  sim::TraceRecord bracket_;  // the bracket next() returned last
};

/// SpanMerge written out, a kReqBegin's nonzero wait as its decimal-ns note
/// (the idiom kMigrate uses for its penalty): the records of a TraceDump.
/// Only dumps need this; in-run analysis reads the cursor directly.
std::vector<sim::TraceRecord> with_request_spans(
    const std::vector<sim::TraceRecord>& records,
    const std::vector<ReqSpan>& spans);

/// Walk the merge of `ring` and `spans` (SpanMerge) once and decompose
/// every request span of the VM named `vm`. `meta` supplies the vCPU→VM
/// mapping and the dropped count; `slo` supplies class names/specs, the
/// window length, and which windows violated (burn rate > 1) — pass an
/// empty SloResult to decompose without violation tables. Spans that
/// began before the retained ring head (head_truncated_at) have partial
/// scheduler evidence and are reported as `truncated`, never charged.
/// The runner calls this over the live ring, so no merged copy is built.
ForensicsResult request_forensics(sim::TraceView ring,
                                  const std::vector<ReqSpan>& spans,
                                  const TraceMeta& meta, const SloResult& slo,
                                  const std::string& vm = "fg");

/// The same analysis over a dump whose brackets are already inline (as
/// with_request_spans() writes them): the offline replay of perfbench and
/// the tests, and the oracle of bench_report's in-run timing.
ForensicsResult request_forensics(const std::vector<sim::TraceRecord>& records,
                                  const TraceMeta& meta, const SloResult& slo,
                                  const std::string& vm = "fg");

}  // namespace irs::obs
