#include "src/exp/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/obs/json.h"

namespace irs::exp {

// ---------------------------------------------------------------------------
// StatAccumulator
// ---------------------------------------------------------------------------

int StatAccumulator::bucket_key(double v) {
  if (v == 0.0 || std::isnan(v)) return 0;
  const bool neg = v < 0.0;
  const double a = neg ? -v : v;
  // For positive doubles the bit pattern is order-preserving; dropping the
  // low 47 bits keeps the exponent plus the top 5 mantissa bits — buckets
  // with ~3 % relative width. +1 keeps the smallest positives distinct
  // from the zero bucket.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(a);
  const int k = static_cast<int>(bits >> 47) + 1;
  return neg ? -k : k;
}

double StatAccumulator::bucket_value(int key) {
  if (key == 0) return 0.0;
  const bool neg = key < 0;
  const std::uint64_t seg = static_cast<std::uint64_t>((neg ? -key : key) - 1);
  // Midpoint of the truncated 47-bit mantissa segment.
  const std::uint64_t bits = (seg << 47) | (std::uint64_t{1} << 46);
  const double v = std::bit_cast<double>(bits);
  return neg ? -v : v;
}

void StatAccumulator::add(double v) {
  if (n_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  const double d = v - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (v - mean_);
  ++buckets_[bucket_key(v)];
}

double StatAccumulator::stddev() const {
  if (n_ == 0) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(n_));
}

double StatAccumulator::percentile(double p) const {
  if (n_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  // Nearest-rank: the smallest value whose cumulative count covers rank k.
  const auto k = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n_)));
  const std::uint64_t rank = std::max<std::uint64_t>(k, 1);
  std::uint64_t cum = 0;
  for (const auto& [key, cnt] : buckets_) {
    cum += cnt;
    if (cum >= rank) {
      // Clamp the bucket representative into the observed range so the
      // sketch never reports beyond the exact extremes.
      return std::clamp(bucket_value(key), min_, max_);
    }
  }
  return max_;  // unreachable: bucket counts sum to n_
}

// ---------------------------------------------------------------------------
// SweepStats
// ---------------------------------------------------------------------------

namespace {

struct MetricDef {
  const char* name;
  double (*get)(const RunResult&);
};

/// One entry per scalar result_json field, in field order.
constexpr MetricDef kMetrics[] = {
    {"fg_makespan_ns",
     [](const RunResult& r) { return static_cast<double>(r.fg_makespan); }},
    {"fg_util_vs_fair", [](const RunResult& r) { return r.fg_util_vs_fair; }},
    {"fg_efficiency", [](const RunResult& r) { return r.fg_efficiency; }},
    {"bg_progress_rate",
     [](const RunResult& r) { return r.bg_progress_rate; }},
    {"throughput", [](const RunResult& r) { return r.throughput; }},
    {"lat_mean_ns",
     [](const RunResult& r) { return static_cast<double>(r.lat_mean); }},
    {"lat_p99_ns",
     [](const RunResult& r) { return static_cast<double>(r.lat_p99); }},
    {"lat_p999_ns",
     [](const RunResult& r) { return static_cast<double>(r.lat_p999); }},
    {"lhp", [](const RunResult& r) { return static_cast<double>(r.lhp); }},
    {"lwp", [](const RunResult& r) { return static_cast<double>(r.lwp); }},
    {"irs_migrations",
     [](const RunResult& r) { return static_cast<double>(r.irs_migrations); }},
    {"sa_sent",
     [](const RunResult& r) { return static_cast<double>(r.sa_sent); }},
    {"sa_acked",
     [](const RunResult& r) { return static_cast<double>(r.sa_acked); }},
    {"sa_delay_avg_ns",
     [](const RunResult& r) { return static_cast<double>(r.sa_delay_avg); }},
};
constexpr std::size_t kNMetrics = std::size(kMetrics);

}  // namespace

const std::vector<std::string>& SweepStats::metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    v.reserve(kNMetrics);
    for (const MetricDef& m : kMetrics) v.emplace_back(m.name);
    return v;
  }();
  return names;
}

void SweepStats::add(const RunResult& r) {
  if (acc_.empty()) acc_.resize(kNMetrics);
  ++runs_;
  if (r.finished) ++finished_;
  for (std::size_t i = 0; i < kNMetrics; ++i) acc_[i].add(kMetrics[i].get(r));
  fold_blocks(blocks_, r);
}

const StatAccumulator& SweepStats::metric(std::size_t i) const {
  static const StatAccumulator kEmpty;
  if (acc_.empty() || i >= acc_.size()) return kEmpty;
  return acc_[i];
}

std::string sweep_stats_json(const SweepStats& s) {
  obs::JsonWriter w(obs::JsonWriter::Doubles::kRoundTrip);
  w.begin_object();
  w.field("runs", s.runs());
  w.field("finished", s.finished());
  w.key("metrics");
  w.begin_object();
  for (std::size_t i = 0; i < kNMetrics; ++i) {
    const StatAccumulator& a = s.metric(i);
    w.key(kMetrics[i].name);
    w.begin_object();
    w.field("count", a.count());
    w.field("mean", a.mean());
    w.field("stddev", a.stddev());
    w.field("min", a.min());
    w.field("max", a.max());
    w.field("p50", a.percentile(50));
    w.field("p90", a.percentile(90));
    w.field("p99", a.percentile(99));
    w.end_object();
  }
  w.end_object();
  const RunResult& b = s.blocks();
  if (!b.slo.empty()) {
    const obs::SloResult& slo = b.slo;
    w.key("slo");
    w.begin_object();
    w.field("digest_xor", b.slo_digest);
    w.field("window_ns", static_cast<std::int64_t>(slo.window));
    w.key("classes");
    w.begin_array();
    for (const obs::SloClassResult& c : slo.classes) {
      w.begin_object();
      w.field("name", c.name);
      w.field("threshold_ns", static_cast<std::int64_t>(c.spec.threshold));
      w.field("objective", c.spec.objective);
      w.field("count", c.total.count());
      w.field("violations", c.violations());
      w.field("mean_ns", static_cast<std::int64_t>(c.total.mean()));
      w.field("p50_ns", static_cast<std::int64_t>(c.total.percentile(50)));
      w.field("p99_ns", static_cast<std::int64_t>(c.total.percentile(99)));
      w.field("p999_ns",
              static_cast<std::int64_t>(c.total.percentile(99.9)));
      w.field("max_ns", static_cast<std::int64_t>(c.total.max()));
      w.field("windows", c.windows.size());
      w.field("hist_digest", c.total.digest());
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  if (!b.forensics.empty()) {
    const obs::ForensicsResult& fz = b.forensics;
    w.key("forensics");
    w.begin_object();
    w.field("digest_xor", b.forensics_digest);
    w.field("window_ns", static_cast<std::int64_t>(fz.window));
    w.key("classes");
    w.begin_array();
    for (const obs::ForensicsClassResult& c : fz.classes) {
      w.begin_object();
      w.field("name", c.name);
      w.field("spans", c.spans);
      w.field("truncated", c.truncated);
      w.field("open", c.open);
      w.field("violating_windows", c.windows.size());
      w.key("cause_totals_ns");
      w.begin_object();
      for (int i = 0; i < obs::kNumCauses; ++i) {
        w.field(obs::cause_name(static_cast<obs::Cause>(i)),
                static_cast<std::int64_t>(
                    c.cause_total(static_cast<obs::Cause>(i))));
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  if (!b.frontend.empty()) {
    w.key("frontend");
    w.begin_object();
    w.field("digest_xor", b.frontend_digest);
    w.key("totals");
    obs::frontend_json(w, b.frontend);
    w.end_object();
  }
  if (!b.cluster.empty()) {
    w.key("cluster");
    w.begin_object();
    w.field("digest_xor", b.cluster_digest);
    w.key("totals");
    obs::cluster_json(w, b.cluster);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

}  // namespace irs::exp
