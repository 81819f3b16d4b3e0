// Timing gates for the costs that only a timed comparison can show, written
// to BENCH_sweep.json (path overridable via argv[1]):
//   * trace_ns_per_record: ns per record appended to the trace ring, no
//     more than 2x an existing report at the output path;
//   * sampler_overhead: the counter sampler at its default cadence adds
//     less than 6% to the runs of a traced fig05a slice;
//   * wheel_fig05_speedup_vs_binary: serial fig05, every run timed on the
//     binary heap "before" and on the default queue backend, reads at
//     least 0.9x as fast on the default backend;
//   * slo_overhead and forensics_overhead: windowed SLO recording and
//     request-span capture each add less than 5% on the fig08 serving
//     shape;
//   * forensics_analyze_ns_per_record: the one-pass analyzer, run the way
//     the runner runs it (over the ring in place, the span log merged by
//     the cursor), stays under 150 ns per merged trace record;
//   * frontend_overhead: the open-loop front-end costs less than 5% more
//     wall time per completed request than the closed-loop ab arm at a
//     matched completion rate.
// Every overhead gate and the wheel gate read the median of paired
// ratios, at least 100 of them outside the SLO and forensics arms.
//
// The deterministic properties beside these costs (serial = parallel
// sweeps, histogram memory, fold identity through result_json, offline
// forensics replay, front-end conservation) are ctest cases. Every gate is
// evaluated and printed as one PASS/FAIL line, and any failure exits 1, so
// one noisy gate cannot hide another. Exit 2: a malformed IRS_BENCH_*
// variable or an unwritable output path.
//
// IRS_BENCH_FAST=1 runs the registry's trimmed grids for smoke runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace {

using namespace irs;

double wall_seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// ns per record appended to an enabled ring.
double measure_trace_ns() {
  sim::Trace trace(1 << 16);
  constexpr int kRecords = 4000000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRecords; ++i) {
    trace.record(i, sim::TraceKind::kUser, i & 3, i & 7);
  }
  const double sec = wall_seconds(t0);
  if (trace.total_recorded() != static_cast<std::uint64_t>(kRecords)) {
    std::abort();
  }
  return sec / kRecords * 1e9;
}

/// Wall seconds of one run of `c`; aborts on a run that served nothing.
double timed_run(const exp::ScenarioConfig& c) {
  const auto t0 = std::chrono::steady_clock::now();
  const exp::RunResult r = exp::run_scenario(c);
  if (!r.finished && r.throughput <= 0) std::abort();
  return wall_seconds(t0);
}

/// A dump split back into what the runner analyses in place: the ring's
/// records and the request-span log, spans in kReqEnd order (the log's
/// completion order). A span's begin is its kReqBegin's time minus the
/// accept-queue wait the bracket's note carries.
struct SplitDump {
  std::vector<sim::TraceRecord> ring;
  std::vector<obs::ReqSpan> spans;
};

SplitDump split_dump(const std::vector<sim::TraceRecord>& records) {
  SplitDump out;
  std::unordered_map<std::int32_t, obs::ReqSpan> open;  // by request id
  for (const sim::TraceRecord& r : records) {
    if (r.kind == sim::TraceKind::kReqBegin) {
      obs::ReqSpan& s = open[r.a];
      s.qwait = std::atoll(r.note.c_str());
      s.begin = r.when - s.qwait;
      s.req = r.a;
      s.cls = r.b;
      s.task = r.c;
    } else if (r.kind == sim::TraceKind::kReqEnd) {
      const auto it = open.find(r.a);
      if (it == open.end()) std::abort();
      it->second.end = r.when;
      out.spans.push_back(it->second);
      open.erase(it);
    } else {
      out.ring.push_back(r);
    }
  }
  return out;
}

/// Median of `v` (the upper one for an even count).
double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// The estimator of every timed comparison here: the median of paired
/// on/off ratios. Each rep times
/// every cell's two arms back to back, `time(i, on)` with the "on" arm
/// first when rep + i is odd, and each (rep, cell) pair gives one ratio.
/// The pair keeps the arms adjacent under machine drift, the alternation
/// cancels the second-arm-reads-slower bias of a busy host, and the median
/// shrugs off the pairs a phase change landed in.
template <typename TimeFn>
double paired_median_ratio(std::size_t n_cells, int reps, TimeFn time) {
  std::vector<double> ratios;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < n_cells; ++i) {
      const bool on_first = ((rep + static_cast<int>(i)) % 2) != 0;
      const double first = time(i, on_first);
      const double second = time(i, !on_first);
      ratios.push_back(on_first ? first / second : second / first);
    }
  }
  return median(ratios);
}

/// Reps of an `n_cells` grid that give the median at least 100 pairs.
int reps_for_100_pairs(std::size_t n_cells) {
  return static_cast<int>((n_cells + 99) / n_cells);
}

/// Extract "key": <number> from a previous report; NaN when absent.
double read_metric(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  if (!in) return std::nan("");
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sweep.json";
  const int seeds = bench::checked_seeds();
  const bool fast = exp::bench_fast();

  // The default queue backend judged end to end: serial fig05 (its fast
  // grid under IRS_BENCH_FAST), every run timed on the binary-heap
  // "before" and on the default backend back to back. The ratio is
  // binary over default, so > 1 means the default backend is faster.
  const sim::QueueKind default_kind = sim::default_queue_kind();
  const char* default_name = sim::Engine().queue_name();
  std::cerr << "[bench_report] serial fig05, binary heap vs " << default_name
            << "...\n";
  const auto wheel_grid = exp::figure_grid("fig05", {seeds, fast});
  // One rep of the full grid gives 864 pairs per seed; the fast grid
  // repeats.
  const int wheel_reps = reps_for_100_pairs(wheel_grid.size());
  const double wheel_speedup = paired_median_ratio(
      wheel_grid.size(), wheel_reps, [&](std::size_t i, bool binary) {
        auto c = wheel_grid[i];
        c.queue = binary ? sim::QueueKind::kBinaryHeap : default_kind;
        return timed_run(c);
      });

  std::cerr << "[bench_report] trace pipeline overhead...\n";
  const double trace_direct_ns = measure_trace_ns();
  // A traced-sweep slice of panel (a) of Figure 5 from the shared grid
  // registry; the untraced run anchors the overhead. Every run of the
  // slice is one cell of the paired estimator, repeated to 100 pairs.
  auto slice = exp::figure_grid("fig05a", {seeds, fast});
  const std::size_t kSliceRuns = 48;
  if (slice.size() > kSliceRuns) slice.resize(kSliceRuns);
  const int slice_reps = reps_for_100_pairs(slice.size());
  // Traced against untraced.
  const double overhead_traced_pct =
      (paired_median_ratio(slice.size(), slice_reps,
                           [&](std::size_t i, bool on) {
                             auto c = slice[i];
                             c.trace_capacity = on ? 1 << 15 : 0;
                             c.sample_period = 0;
                             return timed_run(c);
                           }) -
       1.0) *
      100.0;
  // Incremental cost of the counter sampler on top of a traced run —
  // gated below: the series must stay (nearly) free at the default cadence.
  const double overhead_sampled_pct =
      (paired_median_ratio(slice.size(), slice_reps,
                           [&](std::size_t i, bool on) {
                             auto c = slice[i];
                             c.trace_capacity = 1 << 15;
                             c.sample_period =
                                 on ? obs::Sampler::kDefaultPeriod : 0;
                             return timed_run(c);
                           }) -
       1.0) *
      100.0;
  constexpr double kSampledOverheadLimitPct = 6.0;

  // SLO recording overhead on the fig08 serving shape: "off" (raw
  // core::Histogram counters only, slo_window = -1) vs "on" (windowed SLO
  // recording alongside).
  std::cerr << "[bench_report] SLO recording overhead (fig08 serving shape)...\n";
  auto slo_grid = exp::figure_grid("fig08", {/*seeds=*/1, fast});
  const std::size_t kSloRuns = fast ? 4 : 6;
  if (slo_grid.size() > kSloRuns) slo_grid.resize(kSloRuns);
  // Longer serving runs than the figure uses: each run must be large
  // enough (~30 ms wall) that a single-digit-percent overhead is
  // measurable over this machine's run-to-run jitter. The per-request
  // recording cost is duration-independent, so the ratio is the same —
  // only the noise floor drops.
  for (auto& c : slo_grid) c.server_duration = sim::seconds(10);
  constexpr int kReps = 25;
  const double slo_overhead_pct =
      (paired_median_ratio(slo_grid.size(), kReps,
                           [&](std::size_t i, bool on) {
                             auto c = slo_grid[i];
                             c.slo_window = on ? 0 : -1;
                             return timed_run(c);
                           }) -
       1.0) *
      100.0;
  constexpr double kSloOverheadLimitPct = 5.0;

  // Forensics recording: incremental cost of capturing request spans on
  // the same serving shape. Both arms run the trace ring and SLO tracking;
  // the "on" arm adds one ReqSpan append to the workload's side log per
  // completed request (forensics_analyze=false on both arms keeps the
  // end-of-run analysis, one pass over the ring in place, out of the timed
  // region), so the ratio isolates the always-on capture cost — the only
  // part of forensics that runs while the simulation serves. The effect is
  // ~1 ms per ~30 ms run.
  std::cerr << "[bench_report] forensics recording overhead (fig08 serving "
               "shape)...\n";
  auto forensics_cells = slo_grid;
  for (auto& c : forensics_cells) {
    c.slo_window = 0;
    c.trace_capacity = exp::kForensicsRing;
    c.forensics_analyze = false;
  }
  const double forensics_overhead_pct =
      (paired_median_ratio(forensics_cells.size(), kReps,
                           [&](std::size_t i, bool on) {
                             auto c = forensics_cells[i];
                             c.forensics = on;
                             return timed_run(c);
                           }) -
       1.0) *
      100.0;
  constexpr double kForensicsOverheadLimitPct = 5.0;

  // Forensics analysis: the one-pass decomposition runs once, after the
  // run, so its budget is absolute — ns per merged trace record — rather
  // than a percentage of simulation time. It is timed on the runner's
  // path: the dump split back into the ring and the span log, so the
  // cursor builds and sorts the brackets under the clock, and the result
  // must equal the offline replay of the dump.
  std::cerr << "[bench_report] forensics analyzer (in-run replay)...\n";
  exp::TraceDump fdump;
  {
    auto c = slo_grid.front();
    c.slo_window = 0;
    c.trace_capacity = exp::kForensicsRing;
    c.forensics = true;
    exp::run_scenario(c, exp::RunCapture{.dump = &fdump});
  }
  const SplitDump split = split_dump(fdump.records);
  const std::uint64_t offline_digest =
      obs::request_forensics(fdump.records, fdump.meta, fdump.slo).digest();
  double forensics_analyze_sec = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const obs::ForensicsResult f = obs::request_forensics(
        sim::TraceView{split.ring, {}}, split.spans, fdump.meta, fdump.slo);
    const double sec = wall_seconds(t0);
    if (f.empty() || f.digest() != offline_digest) {
      std::cerr << "error: the in-run analysis of the split dump differs "
                   "from its offline replay\n";
      std::abort();
    }
    if (rep == 0 || sec < forensics_analyze_sec) forensics_analyze_sec = sec;
  }
  const double forensics_analyze_ns_per_record =
      forensics_analyze_sec * 1e9 /
      static_cast<double>(std::max<std::size_t>(1, fdump.records.size()));
  constexpr double kForensicsAnalyzeNsPerRecordLimit = 150.0;

  // Open-loop front-end cost: the listener/accept-queue/worker machinery
  // (arrival pacing events, pipe wakeups, FIFO hand-off, overload checks,
  // keepalive bookkeeping, conservation ledger) must not make a completed
  // request materially more expensive to simulate than the closed-loop
  // "ab" workload it generalises. Matched arms: probe ab's completed-
  // request rate on the scenario shape once, drive the frontend's Poisson
  // arrivals at exactly that rate, and compare wall seconds per completed
  // request, the front-end being one cell of the same estimator; the
  // shared substrate (hog, scheduler, SLO recording) is common to both
  // arms and cancels out of the ratio.
  std::cerr << "[bench_report] open-loop front-end overhead (frontend vs ab, "
               "matched completion count)...\n";
  exp::PanelOptions fe_po;
  exp::ScenarioConfig ab_cell =
      exp::panel_cfg("ab", core::Strategy::kIrs, 1, fe_po);
  ab_cell.server_duration = sim::seconds(10);
  exp::ScenarioConfig fe_cell = ab_cell;
  fe_cell.fg = "frontend";
  const exp::RunResult ab_probe = exp::run_scenario(ab_cell);
  const double fe_duration_sec = 10.0;
  const double ab_completed =
      std::max(1.0, ab_probe.throughput * fe_duration_sec);
  fe_cell.fe_rate_hz = std::max(1.0, ab_probe.throughput);
  // Both runs are deterministic, so the probes' completion counts hold for
  // every timed rep.
  const double fe_completed = std::max<double>(
      1.0, static_cast<double>(exp::run_scenario(fe_cell).frontend.completed));
  const double fe_time_ratio = paired_median_ratio(
      1, reps_for_100_pairs(1),
      [&](std::size_t, bool on) { return timed_run(on ? fe_cell : ab_cell); });
  const double frontend_overhead_pct =
      (fe_time_ratio * ab_completed / fe_completed - 1.0) * 100.0;
  constexpr double kFrontendOverheadLimitPct = 5.0;

  // Regression gate on the trace record hot path, against the previous
  // report at the same output path (if any).
  const double prev_trace_ns =
      read_metric(out_path, "trace_ns_per_record_direct");
  const bool trace_regressed =
      !std::isnan(prev_trace_ns) &&
      trace_direct_ns > 2.0 * std::max(prev_trace_ns, 1.0);

  std::ofstream out(out_path);
  out.precision(6);
  out << "{\n"
      << "  \"engine_queue_backend\": \"" << default_name << "\",\n"
      << "  \"wheel_fig05_pairs\": " << wheel_grid.size() * wheel_reps
      << ",\n"
      << "  \"wheel_fig05_speedup_vs_binary\": " << wheel_speedup << ",\n"
      << "  \"trace_ns_per_record_direct\": " << trace_direct_ns << ",\n"
      << "  \"sweep_overhead_pairs\": " << slice.size() * slice_reps << ",\n"
      << "  \"traced_sweep_overhead_pct\": " << overhead_traced_pct << ",\n"
      << "  \"traced_sampled_sweep_overhead_pct\": " << overhead_sampled_pct
      << ",\n"
      << "  \"slo_sweep_runs\": " << slo_grid.size() << ",\n"
      << "  \"slo_overhead_pct\": " << slo_overhead_pct << ",\n"
      << "  \"forensics_overhead_pct\": " << forensics_overhead_pct << ",\n"
      << "  \"forensics_records\": " << fdump.records.size() << ",\n"
      << "  \"forensics_analyze_secs\": " << forensics_analyze_sec << ",\n"
      << "  \"forensics_analyze_ns_per_record\": "
      << forensics_analyze_ns_per_record << ",\n"
      << "  \"frontend_completed\": " << fe_completed << ",\n"
      << "  \"frontend_ab_completed\": " << ab_completed << ",\n"
      << "  \"frontend_overhead_pct\": " << frontend_overhead_pct << ",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << "\n"
      << "}\n";
  out.close();

  std::cout << "queue: serial fig05 runs " << wheel_speedup << "x as fast on "
            << default_name << " as on the binary heap (median of "
            << wheel_grid.size() * wheel_reps << " paired runs)\n"
            << "trace: " << trace_direct_ns << "ns/rec; traced runs +"
            << overhead_traced_pct << "%, +" << overhead_sampled_pct
            << "% with sampling (medians of " << slice.size() * slice_reps
            << " paired runs)\n"
            << "slo: " << slo_overhead_pct
            << "% recording overhead (median of paired on/off runs)\n"
            << "forensics: " << forensics_overhead_pct
            << "% recording overhead; in-run analyzer "
            << forensics_analyze_ns_per_record << "ns/rec over "
            << fdump.records.size() << " records\n"
            << "frontend: " << frontend_overhead_pct
            << "% per completed request (" << fe_completed
            << " completed vs ab's " << ab_completed << ")\n";
  // One verdict per gate, each value beside its bound. The default queue
  // backend must not lose to the binary-heap "before" on a whole figure
  // grid (0.9 leaves headroom for machine noise; serial fig05 reads the
  // wheel ~1.06x). Windowed SLO recording must stay within 5% of the
  // raw-counter cost on the serving shape it instruments (the add() path
  // is a clamp + a bucket index + three integer updates). Forensics
  // capture is one 24-byte side-log append per completed request, nothing
  // on the trace ring, and its analyzer is a single linear replay whose
  // budget is absolute per merged record. The open-loop front-end's
  // listener, accept pipe, FIFO and overload checks replace ab's
  // per-connection think/request loop rather than stack on top of it.
  struct Gate {
    const char* name;
    bool pass;
    std::string detail;
  };
  auto str = [](auto... parts) {
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
  };
  const std::vector<Gate> gates = {
      {"trace_ns_per_record", !trace_regressed,
       std::isnan(prev_trace_ns)
           ? str(trace_direct_ns, "ns/rec (no previous report)")
           : str(trace_direct_ns, "ns/rec (<= 2x the previous ",
                 prev_trace_ns, "ns/rec)")},
      {"sampler_overhead", overhead_sampled_pct < kSampledOverheadLimitPct,
       str(overhead_sampled_pct, "% (< ", kSampledOverheadLimitPct, "%)")},
      {"wheel_fig05_speedup_vs_binary",
       default_kind == sim::QueueKind::kBinaryHeap || wheel_speedup >= 0.9,
       str(wheel_speedup, "x (>= 0.9x)")},
      {"slo_overhead", slo_overhead_pct < kSloOverheadLimitPct,
       str(slo_overhead_pct, "% (< ", kSloOverheadLimitPct, "%)")},
      {"forensics_overhead",
       forensics_overhead_pct < kForensicsOverheadLimitPct,
       str(forensics_overhead_pct, "% (< ", kForensicsOverheadLimitPct, "%)")},
      {"forensics_analyze_ns_per_record",
       forensics_analyze_ns_per_record < kForensicsAnalyzeNsPerRecordLimit,
       str(forensics_analyze_ns_per_record, "ns/rec (< ",
           kForensicsAnalyzeNsPerRecordLimit, "ns/rec)")},
      {"frontend_overhead", frontend_overhead_pct < kFrontendOverheadLimitPct,
       str(frontend_overhead_pct, "% per completed request (< ",
           kFrontendOverheadLimitPct, "%)")},
  };
  int failed = 0;
  for (const Gate& g : gates) {
    std::cout << (g.pass ? "PASS " : "FAIL ") << g.name
              << (g.detail.empty() ? "" : " ") << g.detail << "\n";
    if (!g.pass) ++failed;
  }
  if (out.fail()) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 2;
  }
  std::cout << "wrote " << out_path << "\n";
  return failed == 0 ? 0 : 1;
}
