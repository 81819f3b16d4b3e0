#include "src/obs/slo.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/obs/fnv.h"

namespace irs::obs {

// ---------------------------------------------------------------------------
// LatencyHistogram — bucket geometry
// ---------------------------------------------------------------------------
//
// Index layout (kSub = 32):
//   v in [0, 64)            -> index v                (unit buckets, exact)
//   v in [2^(k), 2^(k+1)),
//        k >= 6             -> shift = k - 5,
//                              index = shift*32 + (v >> shift)  (32/octave)
// Consecutive octaves tile contiguously: the first log octave [64, 128)
// maps to [64, 96), the next to [96, 128), and so on — index is a
// monotone, gap-free function of v.

namespace {

int bucket_index_impl(std::int64_t v) {
  if (v <= 0) return 0;
  if (v > LatencyHistogram::kMaxValueNs) v = LatencyHistogram::kMaxValueNs;
  const auto u = static_cast<std::uint64_t>(v);
  if (u < 2 * static_cast<std::uint64_t>(LatencyHistogram::kSub)) {
    return static_cast<int>(u);
  }
  const int shift = std::bit_width(u) - (LatencyHistogram::kMantissaBits + 1);
  return static_cast<int>(
      (static_cast<std::uint64_t>(shift) << LatencyHistogram::kMantissaBits) +
      (u >> shift));
}

}  // namespace

int LatencyHistogram::bucket_index(std::int64_t v) {
  return bucket_index_impl(v);
}

const int LatencyHistogram::kNumBuckets =
    bucket_index_impl(LatencyHistogram::kMaxValueNs) + 1;

std::int64_t LatencyHistogram::bucket_lower(int idx) {
  if (idx < 2 * kSub) return idx;
  const int shift = (idx >> kMantissaBits) - 1;
  const std::int64_t base =
      static_cast<std::int64_t>((idx & (kSub - 1)) | kSub);
  return base << shift;
}

std::int64_t LatencyHistogram::bucket_value(int idx) {
  if (idx < 2 * kSub) return idx;  // unit bucket: exact
  const int shift = (idx >> kMantissaBits) - 1;
  const std::int64_t lower = bucket_lower(idx);
  // Midpoint of [lower, lower + 2^shift).
  return lower + (std::int64_t{1} << shift) / 2;
}

void LatencyHistogram::add(sim::Duration v) {
  ensure_buckets();
  std::int64_t clamped = v < 0 ? 0 : v;
  if (clamped > kMaxValueNs) clamped = kMaxValueNs;
  if (count_ == 0) {
    min_ = clamped;
    max_ = clamped;
  } else {
    min_ = std::min(min_, clamped);
    max_ = std::max(max_, clamped);
  }
  ++count_;
  sum_ += static_cast<unsigned __int128>(clamped);
  ++counts_[static_cast<std::size_t>(bucket_index_impl(clamped))];
}

void LatencyHistogram::add_zeros(std::uint64_t n) {
  if (n == 0) return;
  ensure_buckets();
  if (count_ == 0) max_ = 0;
  min_ = 0;  // every recorded value is clamped to >= 0
  count_ += n;
  counts_[0] += n;
}

sim::Duration LatencyHistogram::mean() const {
  if (count_ == 0) return 0;
  return static_cast<sim::Duration>(sum_ / count_);
}

std::uint64_t LatencyHistogram::sum_lo() const {
  return static_cast<std::uint64_t>(sum_);
}

std::uint64_t LatencyHistogram::sum_hi() const {
  return static_cast<std::uint64_t>(sum_ >> 64);
}

sim::Duration LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  const auto k = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  const std::uint64_t rank = std::max<std::uint64_t>(k, 1);
  const auto [lo, hi] = occupied();
  std::uint64_t cum = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    cum += counts_[i];
    if (cum >= rank) {
      return std::clamp<sim::Duration>(bucket_value(static_cast<int>(i)),
                                       min_, max_);
    }
  }
  return max_;  // unreachable: bucket counts sum to count_
}

void LatencyHistogram::percentiles3(sim::Duration* p50, sim::Duration* p99,
                                    sim::Duration* p999) const {
  *p50 = *p99 = *p999 = 0;
  if (count_ == 0) return;
  const auto rank_of = [this](double p) {
    return std::max<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::ceil(p / 100.0 * static_cast<double>(count_))),
        1);
  };
  // Ranks are ordered, so one cumulative pass over the occupied range
  // resolves all three.
  const std::uint64_t r50 = rank_of(50.0);
  const std::uint64_t r99 = rank_of(99.0);
  const std::uint64_t r999 = rank_of(99.9);
  const auto [lo, hi] = occupied();
  std::uint64_t cum = 0;
  int stage = 0;  // next unresolved: 0 = p50, 1 = p99, 2 = p999
  for (std::size_t i = lo; i < hi && stage < 3; ++i) {
    cum += counts_[i];
    const sim::Duration v = std::clamp<sim::Duration>(
        bucket_value(static_cast<int>(i)), min_, max_);
    if (stage == 0 && cum >= r50) {
      *p50 = v;
      stage = 1;
    }
    if (stage == 1 && cum >= r99) {
      *p99 = v;
      stage = 2;
    }
    if (stage == 2 && cum >= r999) {
      *p999 = v;
      stage = 3;
    }
  }
  if (stage < 3) *p999 = max_;  // unreachable: counts sum to count_
  if (stage < 2) *p99 = max_;
  if (stage < 1) *p50 = max_;
}

std::uint64_t LatencyHistogram::count_above(sim::Duration threshold) const {
  if (count_ == 0) return 0;
  if (threshold < 0) return count_;
  // Buckets strictly above the one containing the threshold are certain
  // violations; the threshold's own bucket counts as within-SLO (values
  // there are indistinguishable from the threshold at bucket resolution).
  const auto [lo, hi] = occupied();
  const auto t = static_cast<std::size_t>(bucket_index_impl(threshold));
  std::uint64_t above = 0;
  for (std::size_t i = std::max(t + 1, lo); i < hi; ++i) {
    above += counts_[i];
  }
  return above;
}

void LatencyHistogram::merge(const LatencyHistogram& o) {
  if (o.count_ == 0) return;
  ensure_buckets();
  if (count_ == 0) {
    min_ = o.min_;
    max_ = o.max_;
  } else {
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }
  count_ += o.count_;
  sum_ += o.sum_;
  // Only o's occupied range: a 30 ms serving window spans ~100 buckets,
  // not the full table, and per-window merges are on the tracker's
  // near-hot path.
  const auto [lo, hi] = o.occupied();
  for (std::size_t i = lo; i < hi; ++i) {
    counts_[i] += o.counts_[i];
  }
}

void LatencyHistogram::clear() {
  // Zero only the occupied range; per-window clears would otherwise sweep
  // the whole table 33 times a simulated second.
  const auto [lo, hi] = occupied();
  std::fill(counts_.begin() + static_cast<std::ptrdiff_t>(lo),
            counts_.begin() + static_cast<std::ptrdiff_t>(hi), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

std::size_t LatencyHistogram::memory_bytes() const {
  return sizeof(*this) + counts_.capacity() * sizeof(std::uint64_t);
}

std::uint64_t LatencyHistogram::digest() const {
  std::uint64_t h = kFnvOffset;
  fnv(h, count_);
  fnv(h, sum_lo());
  fnv(h, sum_hi());
  fnv(h, static_cast<std::uint64_t>(min()));
  fnv(h, static_cast<std::uint64_t>(max()));
  for_each_bucket([&h](int idx, std::uint64_t c) {
    fnv(h, static_cast<std::uint64_t>(idx));
    fnv(h, c);
  });
  return h;
}

void LatencyHistogram::restore_bucket(int idx, std::uint64_t count) {
  ensure_buckets();
  if (idx < 0 || idx >= kNumBuckets) return;
  counts_[static_cast<std::size_t>(idx)] = count;
}

void LatencyHistogram::restore_summary(std::uint64_t count,
                                       std::uint64_t sum_lo,
                                       std::uint64_t sum_hi,
                                       sim::Duration min, sim::Duration max) {
  ensure_buckets();
  count_ = count;
  sum_ = (static_cast<unsigned __int128>(sum_hi) << 64) | sum_lo;
  min_ = min;
  max_ = max;
}

bool LatencyHistogram::operator==(const LatencyHistogram& o) const {
  if (count_ != o.count_ || sum_ != o.sum_ || min() != o.min() ||
      max() != o.max()) {
    return false;
  }
  // Equal min and max: both occupy the same range.
  const auto [lo, hi] = occupied();
  return std::equal(counts_.begin() + static_cast<std::ptrdiff_t>(lo),
                    counts_.begin() + static_cast<std::ptrdiff_t>(hi),
                    o.counts_.begin() + static_cast<std::ptrdiff_t>(lo));
}

// ---------------------------------------------------------------------------
// Burn rate
// ---------------------------------------------------------------------------

double burn_rate(const SloWindow& w, const SloSpec& spec) {
  if (w.count == 0) return 0.0;
  const double budget = spec.budget();
  if (budget <= 0.0) return w.violations > 0 ? HUGE_VAL : 0.0;
  const double viol_frac =
      static_cast<double>(w.violations) / static_cast<double>(w.count);
  return viol_frac / budget;
}

// ---------------------------------------------------------------------------
// SloTracker
// ---------------------------------------------------------------------------

std::size_t SloTracker::add_class(std::string name, SloSpec spec) {
  ClassState c;
  c.out.name = std::move(name);
  c.out.spec = spec;
  classes_.push_back(std::move(c));
  return classes_.size() - 1;
}

void SloTracker::append_open(const ClassState& c, SloClassResult* out) {
  if (c.cur_index < 0 || c.cur.count() == 0) return;
  SloWindow w;
  w.index = c.cur_index;
  w.count = c.cur.count();
  w.violations = c.cur_violations;
  c.cur.percentiles3(&w.p50, &w.p99, &w.p999);
  out->windows.push_back(w);
  out->total.merge(c.cur);
}

void SloTracker::close_window(ClassState& c) {
  append_open(c, &c.out);
  c.cur.clear();
  c.cur_violations = 0;
  c.cur_index = -1;
}

void SloTracker::record(std::size_t cls, sim::Time when,
                        sim::Duration latency) {
  ClassState& c = classes_[cls];
  // Hot path: staying inside the open window is one compare. The division
  // only runs when a window boundary is crossed (or on the first record).
  if (c.cur_index < 0 || when >= c.cur_end) {
    close_window(c);
    const std::int64_t idx = when / kDefaultWindow;
    c.cur_index = idx;
    c.cur_end = (idx + 1) * kDefaultWindow;
  }
  c.cur.add(latency);
  if (latency > c.out.spec.threshold) ++c.cur_violations;
}

void SloTracker::flush(sim::Time /*end*/) {
  for (ClassState& c : classes_) close_window(c);
}

SloResult SloTracker::result() const {
  SloResult r;
  r.window = kDefaultWindow;
  for (const ClassState& c : classes_) {
    r.classes.push_back(c.out);
    // An unflushed in-progress window folds into the snapshot so result()
    // is usable mid-run; flush() first for canonical end-of-run output.
    append_open(c, &r.classes.back());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Histogram JSON
// ---------------------------------------------------------------------------

void HistogramFields::write(JsonWriter& w, const char* /*key*/,
                            const LatencyHistogram& h) {
  w.field("count", h.count());
  w.field("sum_lo", h.sum_lo());
  w.field("sum_hi", h.sum_hi());
  w.field("min_ns", static_cast<std::int64_t>(h.min()));
  w.field("max_ns", static_cast<std::int64_t>(h.max()));
  w.key("buckets");
  w.begin_array();
  h.for_each_bucket([&w](int idx, std::uint64_t cnt) {
    w.begin_array();
    w.value(idx);
    w.value(cnt);
    w.end_array();
  });
  w.end_array();
}

bool HistogramFields::read(const JsonValue& v, const char* /*key*/,
                           const std::string& what, LatencyHistogram* out,
                           std::string* err) {
  std::uint64_t count = 0, sum_lo = 0, sum_hi = 0;
  std::int64_t min_ns = 0, max_ns = 0;
  if (!read_field(v, "count", what, &count, err) ||
      !read_field(v, "sum_lo", what, &sum_lo, err) ||
      !read_field(v, "sum_hi", what, &sum_hi, err) ||
      !read_field(v, "min_ns", what, &min_ns, err) ||
      !read_field(v, "max_ns", what, &max_ns, err)) {
    return false;
  }
  if (min_ns > max_ns) return fail(err, what + ": min_ns > max_ns");
  const int lo = LatencyHistogram::bucket_index(min_ns);
  const int hi = LatencyHistogram::bucket_index(max_ns);
  const JsonValue* buckets = v.find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    return fail(err, what + ": missing or bad 'buckets'");
  }
  LatencyHistogram h;
  std::int64_t prev = -1;
  std::uint64_t total = 0;
  for (const JsonValue& bv : buckets->items) {
    std::int64_t idx = 0;
    std::uint64_t cnt = 0;
    if (!bv.is_array() || bv.items.size() != 2 || !bv.items[0].get(&idx) ||
        !bv.items[1].get(&cnt)) {
      return fail(err, what + ": bad bucket entry");
    }
    if (idx < lo || idx > hi) {
      return fail(err, what + ": bucket index outside [index(min_ns), "
                              "index(max_ns)]");
    }
    if (idx <= prev) {
      return fail(err, what + ": bucket indices not strictly ascending");
    }
    prev = idx;
    total += cnt;
    h.restore_bucket(static_cast<int>(idx), cnt);
  }
  if (total != count) {
    return fail(err, what + ": 'count' is not the sum of the buckets");
  }
  h.restore_summary(count, sum_lo, sum_hi, min_ns, max_ns);
  *out = std::move(h);
  return true;
}

}  // namespace irs::obs
