// Windowed tail-latency & SLO observability.
//
// The serving-workload figures (Fig. 8) are about *tail* latency under
// interference, but core::Histogram keeps every sample (O(requests)
// memory), cannot be merged across a sweep's runs, and has no time
// resolution — it answers "what was p999 over the whole run", never "what
// was p999 *during* the hog burst vs after the migrator reacted". This
// header provides the streaming, mergeable, time-resolved alternative:
//
//   * LatencyHistogram — log-bucketed (HDR-style) latency recorder:
//     fixed-geometry log-linear buckets with <= 1/64 (~1.6 %) relative
//     error from 1 ns to 100 s, O(1) add, O(buckets) memory, and
//     deterministic *exact-integer* merge — merging the histograms of N
//     streams is bit-identical to recording the union stream, in any merge
//     order. Counts, sum, min, max are exact; only percentiles are
//     quantised to bucket representatives.
//
//   * SloTracker — aggregates per-class latencies into tumbling windows
//     aligned to the 30 ms credit-accounting window (the same cadence
//     obs::Sampler defaults to), emitting a per-window
//     p50/p99/p999 time series plus violation counts against an SLO spec
//     (threshold + objective fraction), from which error-budget burn rate
//     per window falls out. Recording is entirely passive — no engine
//     events — so a run with SLO tracking enabled is bit-identical to the
//     same run without it.
//
// Everything here is integer-exact except SloSpec::objective (a double,
// serialized in round-trip form), so results fold across a sweep's runs
// bit-identically and digests are comparable across processes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/fields.h"
#include "src/sim/time.h"

namespace irs::obs {

/// Log-bucketed latency histogram (HDR-style log-linear geometry).
///
/// Bucket layout: values 0..2*kSub-1 land in exact unit-width buckets;
/// above that, each power-of-two octave splits into kSub equal sub-buckets,
/// so the relative bucket width — and therefore the worst-case percentile
/// error — is 1/kSub (= 1/32, ~3 %) and the midpoint representative is off
/// by at most half that (~1.6 %). Values clamp to [0, kMaxValueNs]
/// (100 simulated seconds; nothing this repo measures is slower).
class LatencyHistogram {
 public:
  /// Sub-buckets per octave; 32 => <= 1.6 % representative error.
  static constexpr int kMantissaBits = 5;
  static constexpr std::int64_t kSub = std::int64_t{1} << kMantissaBits;
  /// 100 s in ns — the histogram's upper bound (larger values clamp).
  static constexpr std::int64_t kMaxValueNs = 100'000'000'000'000 / 1000;

  /// Bucket index for a clamped value; total bucket count in kNumBuckets.
  static int bucket_index(std::int64_t v);
  /// Inclusive lower bound of bucket `idx`.
  static std::int64_t bucket_lower(int idx);
  /// Deterministic representative (midpoint, exact for unit buckets).
  static std::int64_t bucket_value(int idx);
  static const int kNumBuckets;

  void add(sim::Duration v);
  /// Exactly `n` add(0) calls: count, sum, min, max and buckets do not
  /// depend on the order values arrive in, so zeros can be added in bulk.
  void add_zeros(std::uint64_t n);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] sim::Duration min() const { return count_ > 0 ? min_ : 0; }
  [[nodiscard]] sim::Duration max() const { return count_ > 0 ? max_ : 0; }
  /// Exact integer mean (sum accumulates in 128 bits — ~1.8e38 ns·samples,
  /// unreachable — so no overflow at any request count).
  [[nodiscard]] sim::Duration mean() const;
  /// Low/high halves of the exact 128-bit sum (for serialization).
  [[nodiscard]] std::uint64_t sum_lo() const;
  [[nodiscard]] std::uint64_t sum_hi() const;

  /// Nearest-rank percentile (p in [0,100]) from the buckets: the
  /// representative of the bucket covering rank ceil(p/100*n), clamped to
  /// the exact [min, max] — within ~1.6 % of the exact order statistic.
  [[nodiscard]] sim::Duration percentile(double p) const;

  /// p50/p99/p999 in one cumulative pass (what every window close needs —
  /// one bounded scan instead of three full ones).
  void percentiles3(sim::Duration* p50, sim::Duration* p99,
                    sim::Duration* p999) const;

  /// Fraction of samples strictly above `threshold` — computed from the
  /// bucket containing the threshold, so it is exact whenever the
  /// threshold falls on a bucket boundary and bucket-quantised otherwise.
  [[nodiscard]] std::uint64_t count_above(sim::Duration threshold) const;

  /// Exact integer fold of `o` into this histogram: equivalent to having
  /// add()ed o's stream here, regardless of merge order or grouping.
  void merge(const LatencyHistogram& o);

  void clear();

  /// Heap + object footprint in bytes (the O(buckets) memory claim; the
  /// bench gates this against exact-sample storage).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// FNV-1a over count/sum/min/max and every nonzero (index, count) pair.
  /// Equal digests <=> equal histograms (up to hash collision); merge
  /// determinism condenses to one comparable word.
  [[nodiscard]] std::uint64_t digest() const;

  /// Visit nonzero buckets ascending: fn(index, count).
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    const auto [lo, hi] = occupied();
    for (std::size_t i = lo; i < hi; ++i) {
      if (counts_[i] != 0) fn(static_cast<int>(i), counts_[i]);
    }
  }

  /// Restore one bucket (deserialization; index from a prior
  /// for_each_bucket walk, inside [index(min), index(max)]). count/sum/
  /// min/max are restored separately via restore_summary().
  void restore_bucket(int idx, std::uint64_t count);
  void restore_summary(std::uint64_t count, std::uint64_t sum_lo,
                       std::uint64_t sum_hi, sim::Duration min,
                       sim::Duration max);

  bool operator==(const LatencyHistogram& o) const;

 private:
  void ensure_buckets() {
    if (counts_.empty()) counts_.assign(static_cast<std::size_t>(kNumBuckets), 0);
  }

  /// Bucket range [lo, hi) that can hold samples: add(), merge() and the
  /// reader keep every nonzero count in [index(min), index(max)], so no
  /// walk needs to look outside it. Empty while count() is 0.
  [[nodiscard]] std::pair<std::size_t, std::size_t> occupied() const {
    if (count_ == 0) return {0, 0};
    return {static_cast<std::size_t>(bucket_index(min_)),
            static_cast<std::size_t>(bucket_index(max_)) + 1};
  }

  std::uint64_t count_ = 0;
  unsigned __int128 sum_ = 0;
  sim::Duration min_ = 0;
  sim::Duration max_ = 0;
  std::vector<std::uint64_t> counts_;  // empty until first add (lazily sized)
};

/// The one histogram encoding of the SLO and forensics blocks, as a field
/// codec (see fields.h): six fields of the enclosing object — "count",
/// "sum_lo", "sum_hi", "min_ns", "max_ns" and "buckets" ([[idx,count],..]
/// ascending) — so the entry's key names only the member. read() rejects
/// a missing field, a bucket entry that is malformed, outside
/// [index(min_ns), index(max_ns)] or not in strictly ascending index
/// order, a count other than the bucket total, and min_ns > max_ns; *err
/// then starts with `what`.
struct HistogramFields {
  static void write(JsonWriter& w, const char* key, const LatencyHistogram& h);
  static bool read(const JsonValue& v, const char* key, const std::string& what,
                   LatencyHistogram* out, std::string* err);
};

/// A latency SLO: `objective` fraction of requests must complete within
/// `threshold` (e.g. {20 ms, 0.999} = "p999 <= 20 ms"). Its two fields sit
/// flat in the class objects of the SLO and forensics blocks.
struct SloSpec {
  sim::Duration threshold = 0;
  double objective = 0.999;

  /// Allowed violation fraction (the error budget per window).
  [[nodiscard]] double budget() const { return 1.0 - objective; }
  bool operator==(const SloSpec& o) const = default;

  template <typename F>
  static void fields(F&& f) {
    f("threshold_ns", &SloSpec::threshold, kKeep);
    f("objective", &SloSpec::objective, kKeep);
  }
};

/// One closed tumbling window of one class: counts are exact integers,
/// percentiles are bucket representatives from the window's histogram.
/// Folds by index, summing the counts and keeping the max percentile (a
/// conservative "worst run" envelope: percentiles of disjoint streams do
/// not average).
struct SloWindow {
  std::int64_t index = 0;  // window number: start time == index * window
  std::uint64_t count = 0;
  std::uint64_t violations = 0;  // latency > spec.threshold
  sim::Duration p50 = 0;
  sim::Duration p99 = 0;
  sim::Duration p999 = 0;

  bool operator==(const SloWindow& o) const = default;

  static constexpr bool kRow = true;
  template <typename F>
  static void fields(F&& f) {
    f("index", &SloWindow::index, kKeep);
    f("count", &SloWindow::count, kSum);
    f("violations", &SloWindow::violations, kSum);
    f("p50", &SloWindow::p50, kMax);
    f("p99", &SloWindow::p99, kMax);
    f("p999", &SloWindow::p999, kMax);
  }
};

/// Error-budget burn rate of a window: observed violation fraction over
/// the budget. 1.0 = burning exactly the budget; >1 = SLO-violating pace.
double burn_rate(const SloWindow& w, const SloSpec& spec);

/// One latency class (e.g. "jbb" transactions) as captured from a run.
struct SloClassResult {
  std::string name;
  SloSpec spec;
  LatencyHistogram total;          // whole-run distribution
  std::vector<SloWindow> windows;  // non-empty windows, ascending by index

  /// Whole-run violation count against spec.threshold.
  [[nodiscard]] std::uint64_t violations() const {
    return total.count_above(spec.threshold);
  }
  bool operator==(const SloClassResult& o) const = default;

  static constexpr const char* kWhat = "slo class";
  template <typename F>
  static void fields(F&& f) {
    f("name", &SloClassResult::name, kKeep);
    f("spec", &SloClassResult::spec, kKeep);
    f("total", &SloClassResult::total, kSum, HistogramFields{});
    f("windows", &SloClassResult::windows, kByIndex);
  }
};

/// The full SLO capture of one run — what RunResult carries, result_json
/// serializes, and the sweep folder merges (see fields.h: classes match
/// by name, totals merge bucket-exact, windows merge by index).
///   {"window_ns":W,"classes":[{"name":..,"threshold_ns":..,"objective":..,
///    "count":..,"sum_lo":..,"sum_hi":..,"min_ns":..,"max_ns":..,
///    "buckets":[[idx,count],..],"windows":[[idx,count,viol,p50,p99,p999],..]}]}
struct SloResult {
  sim::Duration window = 0;  // tumbling-window length; 0 = nothing tracked
  std::vector<SloClassResult> classes;

  [[nodiscard]] bool empty() const { return classes.empty(); }
  /// FNV-1a over every field in list order (a histogram by its digest()).
  /// 0 is reserved for the empty result.
  [[nodiscard]] std::uint64_t digest() const { return block_digest(*this); }
  bool operator==(const SloResult& o) const = default;

  static constexpr const char* kWhat = "slo";
  template <typename F>
  static void fields(F&& f) {
    f("window_ns", &SloResult::window, kKeep);
    f("classes", &SloResult::classes, kByName);
  }
};

/// Aggregates per-class request latencies into tumbling windows aligned to
/// simulated time zero (window i covers [i*window, (i+1)*window)), the
/// same 30 ms cadence the credit scheduler accounts on and obs::Sampler
/// samples on by default. record() is O(1); windows close lazily when a
/// later record (or flush) moves past them, and empty windows are skipped.
class SloTracker {
 public:
  /// The one window: the hypervisor's 30 ms credit-accounting period, so
  /// "p999 recovered N windows after the migration" reads in scheduler
  /// time units and lines up with sampler counter tracks.
  static constexpr sim::Duration kDefaultWindow = sim::milliseconds(30);

  /// Register a latency class before recording. Returns its id.
  std::size_t add_class(std::string name, SloSpec spec);

  /// Record one request latency observed at simulated time `when` (its
  /// completion time — the window it lands in). `when` must be
  /// non-decreasing per class (simulated time is).
  void record(std::size_t cls, sim::Time when, sim::Duration latency);

  /// Close the in-progress window of every class (call at run end with
  /// engine.now()). Idempotent; record() after flush() reopens windows.
  void flush(sim::Time end);

  [[nodiscard]] std::size_t n_classes() const { return classes_.size(); }

  /// Snapshot the capture. Call after flush() for complete final windows.
  [[nodiscard]] SloResult result() const;

 private:
  struct ClassState {
    SloClassResult out;
    LatencyHistogram cur;           // in-progress window
    std::uint64_t cur_violations = 0;
    std::int64_t cur_index = -1;    // -1 = no window open
    sim::Time cur_end = 0;          // exclusive end of the open window (the
                                    // hot-path same-window test is a compare,
                                    // not a division)
  };

  /// Append c's open window, if it holds a request, to `out`.
  static void append_open(const ClassState& c, SloClassResult* out);
  void close_window(ClassState& c);

  std::vector<ClassState> classes_;
};

}  // namespace irs::obs
