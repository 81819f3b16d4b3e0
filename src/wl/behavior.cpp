#include "src/wl/behavior.h"

#include <algorithm>
#include <cassert>

namespace irs::wl {

PhasedShape make_phased_shape(const AppSpec& spec, int n_threads,
                              bool endless, std::uint64_t* work) {
  PhasedShape s;
  s.spec = spec;
  s.n_threads = n_threads;
  s.endless = endless;
  s.work = work;
  const bool has_lock = spec.sync == SyncType::kMutex ||
                        spec.sync == SyncType::kMutexBarrier;
  if (has_lock) {
    s.cs_len = std::max<sim::Duration>(
        1, static_cast<sim::Duration>(static_cast<double>(spec.granularity) *
                                      spec.cs_fraction));
    s.outside_len = std::max<sim::Duration>(1, spec.granularity - s.cs_len);
  } else {
    s.cs_len = 0;
    s.outside_len = std::max<sim::Duration>(1, spec.granularity);
  }
  // Lock-only apps sync every round; mixed apps take a few locks per
  // barrier phase; barrier-only apps have one round per phase.
  s.rounds_per_phase = spec.sync == SyncType::kMutexBarrier ? 4 : 1;
  const sim::Duration per_phase =
      spec.granularity * static_cast<sim::Duration>(s.rounds_per_phase);
  s.n_phases = static_cast<int>(
      std::max<sim::Duration>(1, spec.work_per_thread / per_phase));
  return s;
}

guest::Action PhasedBehavior::next(guest::Task& t, sim::Time now,
                                   sim::Rng& rng) {
  (void)t;
  (void)now;
  const PhasedShape& s = shape_;
  for (;;) {
    switch (step_) {
      case 0:  // compute outside the critical section
        step_ = 1;
        return guest::Action::compute(
            rng.jittered(s.outside_len, s.spec.jitter));
      case 1:  // acquire
        if (s.mutex == nullptr) {
          step_ = 4;
          continue;
        }
        step_ = 2;
        return guest::Action::lock(*s.mutex);
      case 2:  // critical section
        step_ = 3;
        return guest::Action::compute(rng.jittered(s.cs_len, s.spec.jitter));
      case 3:  // release
        step_ = 4;
        return guest::Action::unlock(*s.mutex);
      case 4:  // end of round
        if (++round_ < shape_.rounds_per_phase) {
          step_ = 0;
          continue;
        }
        round_ = 0;
        step_ = 5;
        if (s.barrier != nullptr) return guest::Action::barrier(*s.barrier);
        continue;
      case 5:  // end of phase
        if (s.work != nullptr) ++*s.work;
        ++phase_;
        if (!s.endless && phase_ >= s.n_phases) {
          return guest::Action::finish();
        }
        step_ = 0;
        continue;
      default:
        assert(false);
        return guest::Action::finish();
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

guest::Action PipelineBehavior::finish_stage() {
  auto& live = shape_.stage_live[static_cast<std::size_t>(stage_)];
  --live;
  const int last_stage = static_cast<int>(shape_.pipes.size());
  if (live == 0 && stage_ < last_stage) {
    // Last worker out closes the downstream pipe so the next stage drains.
    shape_.pipes[static_cast<std::size_t>(stage_)]->close();
  }
  done_ = true;
  return guest::Action::finish();
}

guest::Action PipelineBehavior::next(guest::Task& t, sim::Time now,
                                     sim::Rng& rng) {
  (void)now;
  const int last_stage = static_cast<int>(shape_.pipes.size());
  for (;;) {
    if (done_) return guest::Action::finish();
    if (stage_ == 0) {
      switch (step_) {
        case 0:  // claim and generate the next item
          if (shape_.items_produced >= shape_.items_total) {
            return finish_stage();
          }
          ++shape_.items_produced;
          step_ = 1;
          return guest::Action::compute(
              rng.jittered(shape_.item_cost, shape_.spec.jitter));
        case 1:  // hand the item to stage 1
          step_ = 0;
          return guest::Action::pipe_push(*shape_.pipes[0]);
        default:
          assert(false);
      }
    }
    switch (step_) {
      case 0:  // take an item from the upstream pipe
        step_ = 1;
        return guest::Action::pipe_pop(
            *shape_.pipes[static_cast<std::size_t>(stage_ - 1)]);
      case 1:  // got an item? (pipe sets wake_value: 0 = closed empty)
        if (t.wake_value == 0) return finish_stage();
        step_ = 2;
        return guest::Action::compute(
            rng.jittered(shape_.item_cost, shape_.spec.jitter));
      case 2:  // pass downstream, or retire the item at the last stage
        step_ = 0;
        if (stage_ < last_stage) {
          return guest::Action::pipe_push(
              *shape_.pipes[static_cast<std::size_t>(stage_)]);
        }
        if (shape_.work != nullptr) ++*shape_.work;
        continue;
      default:
        assert(false);
    }
  }
}

// ---------------------------------------------------------------------------
// Work stealing & hog
// ---------------------------------------------------------------------------

guest::Action WorkStealBehavior::next(guest::Task& t, sim::Time now,
                                      sim::Rng& rng) {
  (void)t;
  (void)now;
  if (auto w = shape_.pool->take()) {
    if (shape_.work != nullptr) ++*shape_.work;
    return guest::Action::compute(rng.jittered(*w, shape_.spec.jitter));
  }
  return guest::Action::finish();
}

guest::Action HogBehavior::next(guest::Task& t, sim::Time now,
                                sim::Rng& rng) {
  (void)t;
  (void)now;
  // A closed gate parks the task without consuming an RNG draw, so the
  // burst-jitter stream a replica produces while active is independent of
  // how long it sat parked — migrations move the stream, not reshuffle it.
  if (gate_ != nullptr && !*gate_) return guest::Action::sleep(kHogPark);
  return guest::Action::compute(rng.jittered(kHogBurst, 0.05));
}

}  // namespace irs::wl
