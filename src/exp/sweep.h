// Parallel sweep runner: executes a vector of independent ScenarioConfigs
// concurrently on a work-stealing thread pool, one private Engine/World per
// run. Every figure in the paper is a grid of independent simulations
// (strategies x apps x interference x seeds), so sweeps scale linearly with
// cores while staying bit-identical to serial execution:
//   * per-run seeds are derived by SplitMix64 from (base_seed, run_index),
//     never from execution order;
//   * results land in a slot indexed by run_index, so thread scheduling
//     cannot reorder them;
//   * simulations share no mutable state (each owns its World).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/exp/runner.h"

namespace irs::exp {

/// Statistically independent per-run seed from a base seed and a run index
/// (SplitMix64 of the index keyed by the base). Stable across platforms,
/// thread counts, and grid sizes.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t run_index);

/// Worker count for sweeps: IRS_BENCH_JOBS if set (>0), else
/// hardware_concurrency. Always >= 1.
int sweep_jobs();

/// Run fn(0..n-1) on a work-stealing pool with `n_threads` workers
/// (0 = sweep_jobs()). With one worker (or n <= 1) runs inline, serially,
/// in index order — the reference execution the parallel path must match.
/// Exceptions thrown by `fn` are rethrown (first one wins) after all
/// workers drain.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  int n_threads = 0);

/// Run every config concurrently; results[i] is run_scenario(cfgs[i]).
/// Bit-identical to the serial loop regardless of thread count.
std::vector<RunResult> run_sweep(const std::vector<ScenarioConfig>& cfgs,
                                 int n_threads = 0);

/// Per-run callback for streaming sweeps: invoked once per run with the run
/// index and its result. Calls arrive strictly in index order (0, 1, 2, …)
/// regardless of the completion order on the pool — completed runs are
/// buffered until every predecessor has been delivered, so a consumer that
/// appends to a file or reports progress sees the same sequence the serial
/// loop would produce. The callback runs on whichever worker thread
/// completed the run that unblocked it; delivery is serialised, so the
/// consumer needs no locking of its own, but it must not call back into the
/// sweep machinery.
using SweepConsumer = std::function<void(std::size_t, const RunResult&)>;

/// run_sweep with incremental, in-order result delivery (progress meters,
/// streaming JSON emission). Returns the same vector as the plain overload.
std::vector<RunResult> run_sweep(const std::vector<ScenarioConfig>& cfgs,
                                 const SweepConsumer& consumer,
                                 int n_threads = 0);

/// Expand one config into `n_seeds` configs whose seeds are
/// derive_seed(cfg.seed, 0..n_seeds-1). The unit of averaging.
std::vector<ScenarioConfig> seed_grid(const ScenarioConfig& cfg, int n_seeds);

/// Average a batch of runs: the exact aggregation run_averaged applies
/// (means for continuous metrics, per-run means for lhp/lwp, sums for the
/// remaining counters, XOR for the sampler digest, fold_blocks for the
/// result blocks).
RunResult average_results(const std::vector<RunResult>& rs);

}  // namespace irs::exp
