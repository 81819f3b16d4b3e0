// Deterministic random numbers for the simulator.
//
// std::mt19937 would work, but its huge state makes simulations expensive to
// fork and its distributions are not portable across standard libraries.
// xoshiro256** seeded by SplitMix64 is small, fast, and fully specified, so
// two builds of this repo produce bit-identical experiment outputs.
#pragma once

#include <cstdint>

#include "src/sim/time.h"

namespace irs::sim {

/// xoshiro256** PRNG with SplitMix64 seeding.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Reset the stream from a 64-bit seed.
  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) using Lemire's multiply-shift reduction
  /// (bound == 0 returns 0).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Duration uniformly jittered around `mean` by +/- `frac` (e.g. 0.2 for
  /// 20% jitter). Never returns a negative duration.
  Duration jittered(Duration mean, double frac);

  /// Exponentially distributed duration with the given mean (for
  /// open-loop request arrivals). Never negative.
  Duration exponential(Duration mean);

  /// Derive an independent child stream (e.g. one per task) such that the
  /// child sequence is stable under unrelated parent draws.
  Rng fork();

 private:
  std::uint64_t s_[4] = {};
};

}  // namespace irs::sim
