#include "src/sim/engine.h"

#include <utility>

#include "src/sim/trace.h"

namespace irs::sim {

EventHandle Engine::schedule(Duration delay, Callback&& fn) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Engine::schedule_at(Time when, Callback&& fn) {
  if (when < now_) when = now_;
  return schedule_reserved(when, next_seq_++, std::move(fn));
}

EventHandle Engine::schedule_reserved(Time when, std::uint64_t seq,
                                      Callback&& fn) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  queue_->push(QEntry{when, seq, slot, s.gen});
  return EventHandle{this, slot, s.gen};
}

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNpos) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.gen;  // invalidate every outstanding handle/queue entry (may wrap)
  s.next_free = free_head_;
  free_head_ = slot;
}

bool Engine::peek_live(QEntry* out) {
  while (queue_->peek(out)) {
    if (event_pending(out->slot, out->gen)) return true;
    queue_->pop(out);  // discard the stale shell
  }
  return false;
}

bool Engine::dispatch_loop(Time deadline, std::uint64_t max_events) {
  const std::uint64_t start = dispatched_;
  QEntry e;
  while (!stop_ && dispatched_ - start < max_events &&
         queue_->pop_until(deadline, &e)) {
    if (!event_pending(e.slot, e.gen)) continue;  // a stale shell
    // Move the callback out and free the slot *before* invoking: the
    // callback may itself schedule (reusing this slot) or cancel, and a
    // handle to this event must already read !pending() while it runs.
    Callback fn = std::move(slots_[e.slot].fn);
    release_slot(e.slot);
    now_ = e.when;
    ++dispatched_;
    fn();
  }
  const bool stopped = stop_;
  stop_ = false;
  return stopped;
}

std::uint64_t Engine::run_until(Time deadline) {
  const std::uint64_t start = dispatched_;
  if (!dispatch_loop(deadline, UINT64_MAX) && now_ < deadline) {
    now_ = deadline;
  }
  return dispatched_ - start;
}

Engine::RunOutcome Engine::run(std::uint64_t max_events) {
  RunOutcome out;
  const std::uint64_t start = dispatched_;
  const bool stopped = dispatch_loop(kTimeMax, max_events);
  out.dispatched = dispatched_ - start;
  if (!stopped && out.dispatched >= max_events) {
    QEntry e;
    if (peek_live(&e)) {
      out.budget_exhausted = true;
      if (trace_ != nullptr) {
        trace_->record(now_, TraceKind::kEngineStop, -1, -1,
                       "event budget exhausted: runaway simulation?");
      }
    }
  }
  return out;
}

void Timer::arm(Duration delay) {
  if (delay < 0) delay = 0;
  deadline_ = eng_.now() + delay;
  seq_ = eng_.reserve_seq();
  armed_ = true;
  if (queued_.pending()) {
    // Due first (equal times: its older seq sorts first): keep it, and let
    // fire() move it to the new key.
    if (queued_when_ <= deadline_) return;
    queued_.cancel();
  }
  queue();
}

void Timer::queue() {
  queued_ = eng_.schedule_reserved(deadline_, seq_, [this] { fire(); });
  queued_when_ = deadline_;
  queued_seq_ = seq_;
}

void Timer::fire() {
  if (!armed_) return;  // cancelled since it was queued
  if (queued_seq_ != seq_) {
    queue();  // re-armed later since it was queued: on to the armed key
    return;
  }
  armed_ = false;
  fn_();
}

}  // namespace irs::sim
