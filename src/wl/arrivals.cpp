#include "src/wl/arrivals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace irs::wl {

const char* arrival_kind_name(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kMmpp: return "mmpp";
    case ArrivalKind::kDiurnal: return "diurnal";
  }
  return "?";
}

bool arrival_kind_from_name(const std::string& name, ArrivalKind* out) {
  for (const ArrivalKind k :
       {ArrivalKind::kPoisson, ArrivalKind::kMmpp, ArrivalKind::kDiurnal}) {
    if (name == arrival_kind_name(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

namespace {

constexpr auto kDiurnalSegs = static_cast<sim::Duration>(kDiurnalMult.size());
constexpr sim::Duration kSegmentLen = kDiurnalPeriod / kDiurnalSegs;
// Every segment has arrivals, so the diurnal loop never meets a silent one.
static_assert(std::ranges::all_of(kDiurnalMult,
                                  [](double m) { return m > 0.0; }));

/// Mean interarrival gap (ns) at `rate_hz` > 0, at least 1 ns.
sim::Duration mean_gap(double rate_hz) {
  const double ns = 1e9 / rate_hz;
  return std::max<sim::Duration>(1, static_cast<sim::Duration>(ns));
}

}  // namespace

ArrivalProcess::ArrivalProcess(const ArrivalConfig& cfg) : cfg_(cfg) {
  if (!(cfg_.rate_hz > 0.0)) {
    throw std::invalid_argument("ArrivalProcess: rate_hz must be > 0 (got " +
                                std::to_string(cfg_.rate_hz) + ")");
  }
}

double ArrivalProcess::segment_rate(std::size_t seg) const {
  return cfg_.rate_hz * kDiurnalMult[seg % kDiurnalMult.size()];
}

sim::Duration ArrivalProcess::next_gap(sim::Rng& rng) {
  switch (cfg_.kind) {
    case ArrivalKind::kPoisson:
      return std::max<sim::Duration>(1,
                                     rng.exponential(mean_gap(cfg_.rate_hz)));
    case ArrivalKind::kMmpp: {
      sim::Duration gap = 0;
      for (;;) {
        if (dwell_left_ <= 0) {
          dwell_left_ = std::max<sim::Duration>(
              1, rng.exponential(burst_ ? kMmppBurstDwell : kMmppCalmDwell));
        }
        const double rate =
            burst_ ? kMmppBurstFactor * cfg_.rate_hz : cfg_.rate_hz;
        const sim::Duration d = rng.exponential(mean_gap(rate));
        if (d < dwell_left_) {
          dwell_left_ -= d;
          return std::max<sim::Duration>(1, gap + d);
        }
        // The modulating chain switches first: spend the dwell remainder
        // and redraw at the new rate (memoryless, so this is exact).
        gap += dwell_left_;
        dwell_left_ = 0;
        burst_ = !burst_;
      }
    }
    case ArrivalKind::kDiurnal: {
      sim::Duration gap = 0;
      for (;;) {
        const auto seg =
            static_cast<std::size_t>((phase_ / kSegmentLen) % kDiurnalSegs);
        const sim::Duration seg_end =
            ((phase_ / kSegmentLen) + 1) * kSegmentLen;
        const sim::Duration d = rng.exponential(mean_gap(segment_rate(seg)));
        if (phase_ + d < seg_end) {
          phase_ += d;
          return std::max<sim::Duration>(1, gap + d);
        }
        gap += seg_end - phase_;
        phase_ = seg_end % (kSegmentLen * kDiurnalSegs);
      }
    }
  }
  return 1;
}

double ArrivalProcess::expected_count(sim::Duration t) const {
  if (t <= 0) return 0.0;
  switch (cfg_.kind) {
    case ArrivalKind::kPoisson:
      return cfg_.rate_hz * sim::to_sec(t);
    case ArrivalKind::kMmpp: {
      const double dc = sim::to_sec(kMmppCalmDwell);
      const double db = sim::to_sec(kMmppBurstDwell);
      const double stationary =
          (cfg_.rate_hz * dc + kMmppBurstFactor * cfg_.rate_hz * db) /
          (dc + db);
      return stationary * sim::to_sec(t);
    }
    case ArrivalKind::kDiurnal: {
      double n = 0.0;
      sim::Duration at = 0;
      std::size_t seg = 0;
      while (at < t) {
        const sim::Duration step = std::min<sim::Duration>(kSegmentLen, t - at);
        n += segment_rate(seg) * sim::to_sec(step);
        at += step;
        ++seg;
      }
      return n;
    }
  }
  return 0.0;
}

}  // namespace irs::wl
