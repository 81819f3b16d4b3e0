// Deterministic open-loop arrival processes for the traffic front-end
// (src/wl/frontend.h).
//
// Three generators, all pure functions of the sim::Rng stream they are
// handed — the listener task drives them from its own per-task rng, so
// arrival sequences are bit-identical at any sweep thread count, across
// shards, and on every event-queue backend:
//
//   * kPoisson — exponential interarrivals at a constant rate;
//   * kMmpp    — 2-state Markov-modulated Poisson (calm/burst): the rate
//                switches between rate_hz and kMmppBurstFactor * rate_hz
//                on exponentially distributed dwell times, producing the
//                bursty traffic a constant-rate process can't (index of
//                dispersion > 1);
//   * kDiurnal — piecewise-constant rate trace: rate_hz scaled by
//                kDiurnalMult[i] over equal-length segments of
//                kDiurnalPeriod, repeating. Its arrival-count integral has
//                a closed form (expected_count) the property tests check.
//
// Generation is exact, not thinned: within a constant-rate stretch the gap
// is one exponential draw; crossing a state switch / segment boundary
// advances to the boundary and redraws (memorylessness makes the spliced
// process exactly the target process).
#pragma once

#include <array>
#include <string>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace irs::wl {

enum class ArrivalKind { kPoisson, kMmpp, kDiurnal };

/// Stable short name ("poisson", "mmpp", "diurnal").
const char* arrival_kind_name(ArrivalKind k);
/// Inverse of arrival_kind_name. Returns false for unknown names.
bool arrival_kind_from_name(const std::string& name, ArrivalKind* out);

/// MMPP: the burst-state rate as a multiple of rate_hz, and the mean dwell
/// in each state.
inline constexpr double kMmppBurstFactor = 4.0;
inline constexpr sim::Duration kMmppCalmDwell = sim::milliseconds(200);
inline constexpr sim::Duration kMmppBurstDwell = sim::milliseconds(50);
/// Diurnal trace: rate multipliers over equal-length segments of one
/// period (a day squeezed to simulation scale), repeating.
inline constexpr std::array kDiurnalMult = {0.25, 0.5, 1.0, 2.0, 1.5, 0.75};
inline constexpr sim::Duration kDiurnalPeriod = sim::seconds(1);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Base arrival rate (requests per simulated second): the Poisson rate,
  /// the MMPP calm-state rate, and the diurnal multiplier baseline.
  double rate_hz = 1800.0;
};

class ArrivalProcess {
 public:
  /// Throws std::invalid_argument unless cfg.rate_hz > 0.
  explicit ArrivalProcess(const ArrivalConfig& cfg);

  /// Gap from the previous arrival to the next one (>= 1 ns), consuming
  /// draws from `rng`. The sequence of gaps is a deterministic function of
  /// the config and the rng stream.
  sim::Duration next_gap(sim::Rng& rng);

  /// Closed-form expected number of arrivals in [0, t) from process start:
  /// exact for Poisson (rate * t) and diurnal (the piecewise integral);
  /// the stationary long-run mean for MMPP (the process starts calm, so
  /// short horizons sit slightly below it).
  [[nodiscard]] double expected_count(sim::Duration t) const;

 private:
  [[nodiscard]] double segment_rate(std::size_t seg) const;

  ArrivalConfig cfg_;
  // MMPP state:
  bool burst_ = false;
  sim::Duration dwell_left_ = 0;
  // Diurnal state: offset into the current period.
  sim::Duration phase_ = 0;
};

}  // namespace irs::wl
