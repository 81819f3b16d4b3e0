// Counter time-series sampler: periodic engine-driven snapshots of model
// counters and levels into fixed-capacity ring-buffered series, exported as
// Perfetto "C" counter tracks.
//
// The sampler lives entirely off the hot path: producers keep incrementing
// their plain counters (SchedStats, StrategyStats, the per-vCPU counts on
// hv::Vcpu) exactly as before, and the sampler reads them through
// callbacks on a simulated-time cadence from an ordinary engine event. The
// tick is read-only — it mutates nothing any model object observes — so a
// run with sampling enabled is bit-identical to the same run without it
// (the engine's stable FIFO tie-break means extra same-time events never
// reorder existing ones). Because sampling rides simulated time, the series
// are also bit-identical across sweep thread counts; digest() condenses
// that invariant into one comparable word.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace irs::obs {

struct Sample {
  sim::Time when = 0;
  std::int64_t value = 0;
};

/// Samples one series keeps before it drops the oldest.
inline constexpr std::size_t kSeriesCapacity = 8192;

/// One named time-series: a ring of kSeriesCapacity samples. Overflow drops
/// the oldest samples and is counted, mirroring sim::Trace.
class Series {
 public:
  explicit Series(std::string name) : name_(std::move(name)) {}
  // The ring grows geometrically up to kSeriesCapacity instead of
  // reserving it upfront: that would allocate (and page-fault) 128 KiB per
  // series per run, which dwarfs the sampling itself on short sweeps.

  void push(sim::Time when, std::int64_t value) {
    ++total_;
    if (ring_.size() < kSeriesCapacity) {
      ring_.push_back(Sample{when, value});
      return;
    }
    ring_[head_] = Sample{when, value};
    ++head_;
    if (head_ == kSeriesCapacity) head_ = 0;
    ++dropped_;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Visit samples oldest-first without copying (digest hot path).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      fn(ring_[(head_ + i) % ring_.size()]);
    }
  }
  /// Samples oldest-first.
  [[nodiscard]] std::vector<Sample> samples() const {
    std::vector<Sample> out;
    out.reserve(ring_.size());
    for_each([&out](const Sample& s) { out.push_back(s); });
    return out;
  }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

 private:
  std::string name_;
  std::size_t head_ = 0;  // next write slot once the ring is full
  std::uint64_t dropped_ = 0;
  std::uint64_t total_ = 0;
  std::vector<Sample> ring_;
};

/// A series detached from its sampler — what run captures and exporters
/// consume.
struct SeriesData {
  std::string name;
  std::vector<Sample> samples;
  std::uint64_t dropped = 0;
};

class Sampler {
 public:
  /// Default cadence: the hypervisor's credit accounting period (30 ms,
  /// hv::SchedParams). One sample per accounting window makes the counter
  /// deltas the natural rate unit for scheduler-level phenomena
  /// (preemptions / steal / SA traffic per slice), gives 30-300 points per
  /// simulated-seconds-long run — plenty for a Perfetto counter plot — and
  /// keeps sampling inside the bench's 6% traced-sweep overhead gate even
  /// on the sparsest sweeps. Denser series are an explicit opt-in via
  /// `sample_period` (tests use 100 us - 1 ms).
  static constexpr sim::Duration kDefaultPeriod = sim::milliseconds(30);

  /// Throws std::invalid_argument unless `period` > 0.
  explicit Sampler(sim::Engine& eng, sim::Duration period = kDefaultPeriod);

  // --- channel registration (before start()) ---
  // Two channel kinds, rate and gauge. Series are sparse: ticks where
  // nothing changed push no sample. For rates an absent sample *is* a zero
  // delta; for gauges a counter track carries its last value forward, so
  // only level changes (and the first observation) need a point. This
  // keeps idle channels free — most channels are idle most ticks.
  /// Each tick reads fn() and pushes it when it changed (instantaneous
  /// level, e.g. runnable vCPUs).
  void add_gauge(std::string name, std::function<std::int64_t()> fn);
  /// Each tick reads fn() and pushes the nonzero deltas — the
  /// events-per-period view of a monotone source: an event counter such
  /// as SchedStats::lhp_events, or cumulative steal nanoseconds. The
  /// first delta is taken against fn() at registration.
  void add_rate(std::string name, std::function<std::int64_t()> fn);

  /// Arm the periodic tick. Channels registered later join mid-run.
  void start();

  /// Take one sample of every channel at engine.now() (also what the
  /// periodic tick does).
  void sample_now();

  [[nodiscard]] sim::Duration period() const { return period_; }
  [[nodiscard]] std::size_t n_series() const { return series_.size(); }
  [[nodiscard]] const Series& series(std::size_t i) const {
    return series_.at(i);
  }

  /// Detach every series for export.
  [[nodiscard]] std::vector<SeriesData> dump() const;

  /// Hash over every series' name, samples, and drop counters. Two runs
  /// produced identical series iff their digests match — the cheap form of
  /// the "bit-identical across sweep thread counts" invariant.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  // Channel state lives in parallel arrays (rate_/prev_/primed_/fns_/
  // series_) rather than one fat struct: a tick strides a few contiguous
  // cache lines, and the rings are only touched on the (sparse) pushes.
  void add_channel(std::string name, bool rate,
                   std::function<std::int64_t()> fn);
  void tick();

  sim::Engine& eng_;
  sim::Duration period_;
  std::vector<std::uint8_t> rate_;  // 1: push deltas, 0: push levels
  std::vector<std::int64_t> prev_;
  std::vector<std::uint8_t> primed_;  // gauge: first observation pushes
  std::vector<std::function<std::int64_t()>> fns_;
  std::vector<Series> series_;
  bool started_ = false;
};

}  // namespace irs::obs
