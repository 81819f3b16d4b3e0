// Measurement utilities: latency histograms and per-run summaries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace irs::core {

/// Exact-sample latency recorder (simulations produce modest sample counts,
/// so we keep every value and compute exact percentiles).
class Histogram {
 public:
  void add(sim::Duration v) { samples_.push_back(v); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  [[nodiscard]] sim::Duration mean() const {
    if (samples_.empty()) return 0;
    // Accumulate in 128 bits: a sum of int64 ns durations overflows int64
    // at ~9.2e18 ns·samples (e.g. 1e9 samples of ~9.2 s), which large
    // serving runs can reach.
    __int128 total = 0;
    for (auto v : samples_) total += v;
    return static_cast<sim::Duration>(
        total / static_cast<__int128>(samples_.size()));
  }

  /// Exact percentile, p in [0, 100]: linear interpolation between closest
  /// ranks (the "C = 1" / numpy default convention), so e.g. the median of
  /// {10, 20} is 15 rather than either sample.
  /// Selection, not a sort: the sample of rank `lo` is placed by
  /// nth_element, and its interpolation neighbour of rank lo + 1 is the
  /// smallest sample above it.
  [[nodiscard]] sim::Duration percentile(double p) const {
    if (samples_.empty()) return 0;
    p = std::min(100.0, std::max(0.0, p));
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(samples_.begin(), nth, samples_.end());
    if (frac == 0.0 || lo + 1 >= samples_.size()) return *nth;
    const double below = static_cast<double>(*nth);
    const double above =
        static_cast<double>(*std::min_element(nth + 1, samples_.end()));
    return static_cast<sim::Duration>(
        std::llround(below + frac * (above - below)));
  }

  [[nodiscard]] sim::Duration max() const {
    if (samples_.empty()) return 0;
    return *std::max_element(samples_.begin(), samples_.end());
  }

  void clear() { samples_.clear(); }

 private:
  // percentile() is logically const (the sample multiset is unchanged), so
  // the storage order it permutes is mutable.
  mutable std::vector<sim::Duration> samples_;
};

/// Per-VM summary extracted from a finished run.
struct VmMetrics {
  std::string vm_name;
  sim::Duration elapsed = 0;
  sim::Duration cpu_time = 0;        // sum of vCPU running time
  sim::Duration steal_time = 0;      // sum of vCPU runnable time
  sim::Duration fair_share = 0;      // entitled CPU time over the run
  sim::Duration useful_compute = 0;  // task-level productive work
  double progress = 0;               // workload progress counter
  bool workload_finished = false;
  sim::Duration makespan = -1;       // fg completion time (bounded loads)

  /// CPU utilisation relative to fair share (Fig. 2's metric).
  [[nodiscard]] double util_vs_fair() const {
    return fair_share > 0 ? static_cast<double>(cpu_time) /
                                static_cast<double>(fair_share)
                          : 0.0;
  }
  /// Useful work relative to fair share (excludes spin waste).
  [[nodiscard]] double efficiency_vs_fair() const {
    return fair_share > 0 ? static_cast<double>(useful_compute) /
                                static_cast<double>(fair_share)
                          : 0.0;
  }
};

/// Percentage improvement of `x` over baseline `base` where smaller is
/// better (runtimes, latencies).
inline double improvement_pct(double base, double x) {
  if (base <= 0) return 0.0;
  return (base - x) / base * 100.0;
}

/// Percentage improvement where larger is better (throughput).
inline double gain_pct(double base, double x) {
  if (base <= 0) return 0.0;
  return (x - base) / base * 100.0;
}

}  // namespace irs::core
