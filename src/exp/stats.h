// Streaming aggregate statistics over sweep results.
//
// Consumers that only want aggregates (count, mean, spread, tail
// percentiles) should not have to materialise a std::vector<RunResult>
// first. This header folds results one at a time, e.g. from run_sweep's
// streaming consumer:
//
//   * StatAccumulator — one metric's running count/mean/variance (Welford),
//     exact min/max, and a log-linear histogram sketch for percentiles
//     (~3 % relative error, fixed memory, deterministic);
//   * SweepStats — one StatAccumulator per RunResult metric plus the exact
//     fold of every result block, added one run at a time.
//
// bench_report and the repo benchmark fold their sweeps through it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/exp/runner.h"

namespace irs::exp {

/// Running statistics for one scalar metric. add() is O(log bins) and the
/// state is O(distinct magnitude buckets) — never O(samples). All derived
/// values are deterministic functions of the multiset of samples plus, for
/// mean/stddev, their order (Welford folds in arrival order; sweeps fold
/// in run-index order, so reports are reproducible).
class StatAccumulator {
 public:
  void add(double v);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population standard deviation (consistent with the figure tables).
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

  /// Nearest-rank percentile (p in [0, 100]) from the log-linear sketch:
  /// the returned value is within ~3 % (one half mantissa bucket) of the
  /// exact order statistic. p <= 0 returns min(), p >= 100 returns max().
  [[nodiscard]] double percentile(double p) const;

 private:
  /// Order-preserving bucket key: 0 for zero, positive for positive v,
  /// mirrored negative for negative v. Exponent plus top 5 mantissa bits.
  static int bucket_key(double v);
  /// Representative value of a bucket (mantissa-segment midpoint).
  static double bucket_value(int key);

  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations (Welford)
  double min_ = 0.0;
  double max_ = 0.0;
  std::map<int, std::uint64_t> buckets_;  // ordered => percentile walk
};

/// Aggregate statistics over a stream of RunResults: one accumulator per
/// scalar metric plus run/finished counts. Metric order and names match
/// result_json's fields.
class SweepStats {
 public:
  /// Names of the tracked metrics, in report order.
  static const std::vector<std::string>& metric_names();

  /// Fold one run. Order matters only for mean/stddev determinism; fold in
  /// run-index order for reproducible reports.
  void add(const RunResult& r);

  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] std::uint64_t finished() const { return finished_; }
  /// Accumulator for metric_names()[i].
  [[nodiscard]] const StatAccumulator& metric(std::size_t i) const;

  /// Sweep-wide block fold: every run's result blocks folded exactly and
  /// their digests XORed (see fold_blocks). Only the block and *_digest
  /// fields are set; a block stays empty when no run carried it.
  [[nodiscard]] const RunResult& blocks() const { return blocks_; }

 private:
  std::uint64_t runs_ = 0;
  std::uint64_t finished_ = 0;
  std::vector<StatAccumulator> acc_;
  RunResult blocks_;
};

/// Stable JSON rendering of a SweepStats (fixed key order; count, mean,
/// stddev, min, max, p50/p90/p99 per metric; then a summary section with
/// the digest XOR for each block the fold holds).
std::string sweep_stats_json(const SweepStats& s);

}  // namespace irs::exp
