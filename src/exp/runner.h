// Experiment runner: builds the paper's standard two-VM (or N-VM) topology
// around a foreground workload and interference, runs it to completion, and
// extracts the metrics the figures report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/strategy.h"
#include "src/core/world.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/cluster_stats.h"
#include "src/obs/forensics.h"
#include "src/obs/frontend_stats.h"
#include "src/obs/slo.h"
#include "src/wl/registry.h"

namespace irs::exp {

/// Cluster sub-config of a scenario: n_hosts >= 2 switches the runner from
/// the classic single-host World to a cluster::Cluster of that many hosts —
/// the foreground VM fixed on host 0, each interfering VM (gated hogs: a
/// cluster run rejects any `bg` but "hog" or empty) a *migratable* logical
/// VM the placement policy admits and the kIrs policy may live-migrate
/// (see src/cluster/cluster.h).
struct ClusterOptions {
  /// 0 or 1 = classic single-host run; >= 2 = cluster run.
  int n_hosts = 0;
  /// Placement policy name: "random", "firstfit", or "irs". Cadences and
  /// the migration cost are the cluster layer's constants.
  std::string policy = "irs";
};

/// How long a run may take in simulated time before run_scenario gives up
/// on the foreground (RunResult::finished stays false).
inline constexpr sim::Duration kRunTimeout = sim::seconds(150);

/// One experimental condition (paper §5.1 "Experimental Settings"). The
/// inherited core::WorldConfig is the shape of every host of the run
/// (n_pcpus, the hypervisor's SA ack cap, strategy, seed, trace ring and
/// sampler) plus the engine's queue backend, which must not
/// change any result. The inherited wl::WorkloadOptions are the foreground
/// workload's: its thread count (n_threads), work scale, serving time, and
/// the SPECjbb spin shape and open-loop front-end knobs.
struct ScenarioConfig : core::WorldConfig, wl::WorkloadOptions {
  /// Foreground workload (PARSEC/NPB name, "specjbb", "ab", "frontend").
  std::string fg = "streamcluster";

  /// Interference: "hog" or a real application name; empty = run alone.
  std::string bg = "hog";
  /// #foreground vCPUs subject to interference ("1-inter." etc.): the
  /// background VM gets this many vCPUs/threads, pinned to pCPUs 0..n-1.
  int n_inter = 1;
  /// Number of co-located interfering VMs (Fig. 11 varies this).
  int n_bg_vms = 1;

  int n_vcpus = 4;
  /// Pinned topology (§5.1 "CPU pinning") vs. free placement (§5.6).
  bool pinned = true;

  /// Guest kernel tunables for the foreground VM (ablation knobs; its
  /// paravirtual role follows from `strategy`).
  guest::GuestConfig fg_guest{};

  /// Cluster topology (n_hosts >= 2 switches to the cluster runner).
  ClusterOptions cluster;

  /// Windowed SLO tracking for server workloads (jbb/ab/frontend): 0 = on
  /// at the one window, SloTracker::kDefaultWindow (the 30 ms credit
  /// cadence), <0 = off (the bench overhead gate's "raw counters only"
  /// arm). The window is fixed, so run_scenario rejects a positive value.
  /// Tracking is passive — every other result field is bit-identical
  /// either way.
  sim::Duration slo_window = 0;
  /// Per-request causal forensics for single-host server runs
  /// (jbb/ab/frontend; a cluster run rejects it): captures a ReqSpan per
  /// request into a side log (the runner synthesizes kReqBegin/kReqEnd
  /// records from it at analysis time) and decomposes each request's
  /// latency by cause (see obs/forensics.h). Enables the trace ring at
  /// kForensicsRing if trace_capacity is 0 (a RunCapture dump does not
  /// shrink it). Passive: only the trace-telemetry and forensics fields of
  /// the result change. Any other foreground rejects it.
  bool forensics = false;
  /// With forensics on, run the decomposition at the end of the run (one
  /// pass over the ring in place, merged with the span log). false records
  /// the request spans but leaves RunResult::forensics empty:
  /// bench_report's forensics_overhead gate times the recording cost that
  /// way, and a RunCapture dump of such a run replays offline through
  /// obs::request_forensics to the same block.
  bool forensics_analyze = true;
};

/// Metrics extracted from one run.
struct RunResult {
  bool finished = false;
  sim::Duration fg_makespan = 0;
  double fg_util_vs_fair = 0;    // Fig. 2 metric
  double fg_efficiency = 0;      // useful work / fair share
  double bg_progress_rate = 0;   // bg units/sec (weighted-speedup input)
  /// Server workloads only:
  double throughput = 0;
  sim::Duration lat_mean = 0;
  sim::Duration lat_p99 = 0;
  /// Exact 99.9th percentile of request latency (server workloads only) —
  /// the tail metric fig_cluster compares across placement policies.
  sim::Duration lat_p999 = 0;
  /// Scheduler event counters:
  std::uint64_t lhp = 0;
  std::uint64_t lwp = 0;
  std::uint64_t irs_migrations = 0;
  std::uint64_t sa_sent = 0;
  std::uint64_t sa_acked = 0;
  sim::Duration sa_delay_avg = 0;
  /// FNV-1a digest of every sampler series (0 when sampling was off).
  /// Determinism sentinel: equal configs must produce equal digests
  /// regardless of sweep thread count.
  std::uint64_t sampler_digest = 0;
  /// Trace-ring truncation telemetry (0/0 when tracing was off), so a
  /// consumer can tell a run whose ring wrapped from a complete one.
  std::uint64_t trace_dropped = 0;
  std::uint64_t trace_total_recorded = 0;
  /// The result blocks (see for_each_block), each stored with its digest:
  /// windowed SLO capture (empty unless a server workload ran with
  /// cfg.slo_window >= 0), per-request causal decomposition (empty unless
  /// cfg.forensics), open-loop front-end conservation ledger (empty unless
  /// fg == "frontend"), and cluster placement/migration ledger (empty
  /// unless cluster.n_hosts >= 2).
  obs::SloResult slo;
  std::uint64_t slo_digest = 0;
  obs::ForensicsResult forensics;
  std::uint64_t forensics_digest = 0;
  obs::FrontendResult frontend;
  std::uint64_t frontend_digest = 0;
  obs::ClusterResult cluster;
  std::uint64_t cluster_digest = 0;

  /// Exact equality over every field (doubles via ==), so no field can be
  /// left out of the identity check.
  bool operator==(const RunResult&) const = default;

  /// The scalars in result_json order (see obs/fields.h), each with the
  /// rule average_results applies across seeds: or, the mean (durations
  /// accumulate in double), the integer mean, the sum, or XOR for the
  /// sampler digest, whose average would be meaningless. The blocks follow
  /// through for_each_block.
  template <typename F>
  static void fields(F&& f) {
    f("finished", &RunResult::finished, obs::kOr);
    f("fg_makespan_ns", &RunResult::fg_makespan, obs::kMean);
    f("fg_util_vs_fair", &RunResult::fg_util_vs_fair, obs::kMean);
    f("fg_efficiency", &RunResult::fg_efficiency, obs::kMean);
    f("bg_progress_rate", &RunResult::bg_progress_rate, obs::kMean);
    f("throughput", &RunResult::throughput, obs::kMean);
    f("lat_mean_ns", &RunResult::lat_mean, obs::kMean);
    f("lat_p99_ns", &RunResult::lat_p99, obs::kMean);
    f("lat_p999_ns", &RunResult::lat_p999, obs::kMean);
    f("lhp", &RunResult::lhp, obs::kIntMean);
    f("lwp", &RunResult::lwp, obs::kIntMean);
    f("irs_migrations", &RunResult::irs_migrations, obs::kSum);
    f("sa_sent", &RunResult::sa_sent, obs::kSum);
    f("sa_acked", &RunResult::sa_acked, obs::kSum);
    f("sa_delay_avg_ns", &RunResult::sa_delay_avg, obs::kMean);
    f("sampler_digest", &RunResult::sampler_digest, obs::kXor);
    f("trace_dropped", &RunResult::trace_dropped, obs::kSum);
    f("trace_total_recorded", &RunResult::trace_total_recorded, obs::kSum);
  }
};

/// The result-block list: calls f(key, digest_key, &RunResult::<block>,
/// &RunResult::<block>_digest) once per block, in result_json order. Every
/// generic site (result_json, result_from_value, fold_blocks) iterates it,
/// and obs::write_block / read_block / fold_block (obs/fields.h) serve
/// every block through its field list, so a new block is one line here.
template <typename F>
void for_each_block(F&& f) {
  f("slo", "slo_digest", &RunResult::slo, &RunResult::slo_digest);
  f("forensics", "forensics_digest", &RunResult::forensics,
    &RunResult::forensics_digest);
  f("frontend", "frontend_digest", &RunResult::frontend,
    &RunResult::frontend_digest);
  f("cluster", "cluster_digest", &RunResult::cluster,
    &RunResult::cluster_digest);
}

/// Fold every result block of `r` into `acc` exactly. Order- and
/// grouping-independent: average_results and SweepStats reach the same
/// blocks in any run order. The digests are left alone; a folded result
/// gets them from set_block_digests once, when folding is done.
void fold_blocks(RunResult& acc, const RunResult& r);

/// Set each <key>_digest to its block's digest(), as result_from_value
/// requires.
void set_block_digests(RunResult& r);

/// A run's trace, captured for export: the ring snapshot (oldest first;
/// with forensics, merged with the request brackets) plus the
/// topology/bookkeeping metadata the exporters need.
struct TraceDump {
  std::vector<sim::TraceRecord> records;
  obs::TraceMeta meta;
  /// Sampler series captured at the end of the run (counter tracks).
  std::vector<obs::SeriesData> series;
  /// Windowed SLO capture (empty for non-server workloads).
  obs::SloResult slo;
  /// Per-request causal decomposition (empty unless cfg.forensics).
  obs::ForensicsResult forensics;
};

/// The determinism contract of this repo: equal configs on equal seeds
/// must compare identical regardless of thread count, queue backend, or a
/// trip through result_json.
inline bool results_identical(const RunResult& a, const RunResult& b) {
  return a == b;
}

/// The trace ring capacities a run gets when its config leaves
/// trace_capacity at 0: kDumpRing when a RunCapture asks for a dump (also
/// irs_trace_dump's --capacity default), kForensicsRing with forensics on,
/// roomy so the scheduler evidence around early spans survives to
/// analysis. Forensics' ring applies first, so asking for a dump never
/// shrinks it.
inline constexpr std::size_t kDumpRing = 1 << 16;
inline constexpr std::size_t kForensicsRing = 1 << 18;

/// Capture options for run_scenario: new capture surfaces extend this
/// struct instead of multiplying overloads. Any requested capture enables
/// the trace ring at kDumpRing and the sampler at its default period when
/// the config left them off.
struct RunCapture {
  /// Capture the run's trace: single-host runs fill it with the host's
  /// timeline; cluster runs with host 0's.
  TraceDump* dump = nullptr;
  /// Cluster runs only: resized to n_hosts and filled with one TraceDump
  /// per host (host 0's entry equals what *dump receives).
  std::vector<TraceDump>* host_dumps = nullptr;
};

/// Run one scenario, capturing whatever `capture` asks for.
RunResult run_scenario(const ScenarioConfig& cfg, const RunCapture& capture);

/// Run with no capture.
inline RunResult run_scenario(const ScenarioConfig& cfg) {
  return run_scenario(cfg, RunCapture{});
}

/// Average `n_seeds` runs whose seeds are derive_seed(cfg.seed, i) (the
/// paper averages 5 runs). Runs execute on the parallel sweep pool (see
/// src/exp/sweep.h) and the result is bit-identical to averaging n_seeds
/// serial run_scenario calls over the same derived seeds.
RunResult run_averaged(ScenarioConfig cfg, int n_seeds);

/// Makespan improvement of `x` over `base`, percent (Fig. 5/6 metric).
double improvement_pct(const RunResult& base, const RunResult& x);

/// Weighted speedup of fg+bg vs. baseline, percent (Fig. 7/9 metric: 100 =
/// parity with vanilla Xen/Linux).
double weighted_speedup_pct(const RunResult& base, const RunResult& x);

/// The whole of `text` as a T (int, std::uint64_t or double) no smaller
/// than `min`. Anything else — an empty string, leading space, trailing
/// characters, a value below `min` or out of T's range, a double that is
/// not finite — throws std::invalid_argument naming `what` (a flag or
/// environment variable) and the text. The one number parser of the CLIs
/// and the IRS_BENCH_* variables.
template <typename T>
T parse_number(const std::string& what, const char* text, T min);

/// True when IRS_BENCH_FAST is set: the bench binaries then run the
/// registry's trimmed grids (GridOptions::fast) at one seed.
bool bench_fast();

/// Number of seeds per data point: IRS_BENCH_SEEDS when set (parsed by
/// parse_number, so a malformed value throws), else 1 under bench_fast()
/// and 2 otherwise.
int bench_seeds();

}  // namespace irs::exp
