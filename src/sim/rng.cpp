#include "src/sim/rng.h"

#include <cmath>

namespace irs::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire reduction; bias is < 2^-64 * bound, irrelevant for simulation.
  const unsigned __int128 m =
      static_cast<unsigned __int128>(next_u64()) * bound;
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  // 53 high bits -> [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

Duration Rng::jittered(Duration mean, double frac) {
  if (mean <= 0) return 0;
  const double f = 1.0 + frac * (2.0 * next_double() - 1.0);
  const double v = static_cast<double>(mean) * f;
  return v < 0 ? 0 : static_cast<Duration>(v);
}

Duration Rng::exponential(Duration mean) {
  if (mean <= 0) return 0;
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
  const double v = -static_cast<double>(mean) * std::log(u);
  return static_cast<Duration>(v);
}

Rng Rng::fork() {
  Rng child(0);
  std::uint64_t sm = next_u64();
  for (auto& s : child.s_) s = splitmix64(sm);
  if ((child.s_[0] | child.s_[1] | child.s_[2] | child.s_[3]) == 0)
    child.s_[0] = 1;
  return child;
}

}  // namespace irs::sim
