#include "src/obs/sampler.h"

#include "src/obs/fnv.h"

namespace irs::obs {

Sampler::Sampler(sim::Engine& eng, sim::Duration period)
    : eng_(eng), period_(period > 0 ? period : kDefaultPeriod) {}

void Sampler::add_channel(std::string name, bool rate,
                          std::function<std::int64_t()> fn) {
  // A rate's first delta is taken against its value at registration.
  prev_.push_back(rate ? fn() : 0);
  rate_.push_back(rate ? 1 : 0);
  primed_.push_back(0);
  fns_.push_back(std::move(fn));
  series_.emplace_back(std::move(name), kDefaultCapacity);
}

void Sampler::add_gauge(std::string name, std::function<std::int64_t()> fn) {
  add_channel(std::move(name), /*rate=*/false, std::move(fn));
}

void Sampler::add_rate(std::string name, std::function<std::int64_t()> fn) {
  add_channel(std::move(name), /*rate=*/true, std::move(fn));
}

void Sampler::sample_now() {
  const sim::Time now = eng_.now();
  const std::size_t n = series_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t cur = fns_[i]();
    if (rate_[i] == 0) {
      // Sparse: a counter track carries its value forward, so only level
      // changes need a point (the first observation always does).
      if (primed_[i] == 0 || cur != prev_[i]) series_[i].push(now, cur);
      prev_[i] = cur;
      primed_[i] = 1;
    } else {
      const std::int64_t delta = cur - prev_[i];
      prev_[i] = cur;
      // Sparse: an absent sample is a zero delta by construction, so idle
      // periods cost no ring writes (most channels are idle most ticks).
      if (delta != 0) series_[i].push(now, delta);
    }
  }
}

void Sampler::tick() {
  sample_now();
  tick_evt_ = eng_.schedule(period_, [this]() { tick(); }, "obs.sample");
}

void Sampler::start() {
  if (started_) return;
  started_ = true;
  tick_evt_ = eng_.schedule(period_, [this]() { tick(); }, "obs.sample");
}

void Sampler::stop() {
  tick_evt_.cancel();
  started_ = false;
}

std::vector<SeriesData> Sampler::dump() const {
  std::vector<SeriesData> out;
  out.reserve(series_.size());
  for (const Series& s : series_) {
    out.push_back(SeriesData{s.name(), s.samples(), s.dropped()});
  }
  return out;
}

namespace {

// splitmix64 finalizer: full-width word mixing so the sample loop hashes
// 16 bytes per iteration instead of byte-at-a-time FNV (the digest runs
// once per scenario and must stay off the sweep's critical path).
inline std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t Sampler::digest() const {
  std::uint64_t h = kFnvOffset;
  for (const Series& s : series_) {
    fnv_bytes(h, s.name().data(), s.name().size());
    h = mix(h ^ s.dropped());
    s.for_each([&h](const Sample& smp) {
      h = mix(h ^ static_cast<std::uint64_t>(smp.when));
      h = mix(h ^ static_cast<std::uint64_t>(smp.value));
    });
  }
  return h;
}

}  // namespace irs::obs
