#include "src/sync/pipe.h"

#include <cassert>

namespace irs::sync {

Pipe::Pipe(guest::SchedApi& api, int capacity, std::string name)
    : api_(api), capacity_(capacity), name_(std::move(name)) {
  assert(capacity > 0);
}

AcquireResult Pipe::push(guest::Task& t) {
  if (!consumers_.empty()) {
    // Hand the item straight to a blocked consumer.
    guest::Task* c = consumers_.front();
    consumers_.pop_front();
    c->wake_value = 1;  // the consumer received an item
    api_.wake_task(*c);
    t.wake_value = 1;
    return AcquireResult::kAcquired;
  }
  if (size_ == capacity_) {
    producers_.push_back(&t);
    return AcquireResult::kBlocked;
  }
  ++size_;
  t.wake_value = 1;
  return AcquireResult::kAcquired;
}

AcquireResult Pipe::pop(guest::Task& t) {
  if (closed_ && size_ == 0) {
    t.wake_value = 0;  // closed and drained: no item
    return AcquireResult::kAcquired;
  }
  if (size_ == 0) {
    consumers_.push_back(&t);
    return AcquireResult::kBlocked;
  }
  --size_;
  t.wake_value = 1;
  if (!producers_.empty()) {
    // A blocked producer's item takes the freed slot.
    guest::Task* p = producers_.front();
    producers_.pop_front();
    ++size_;
    p->wake_value = 1;
    api_.wake_task(*p);
  }
  return AcquireResult::kAcquired;
}

void Pipe::close() {
  closed_ = true;
  // Only the consumers blocked now. After the close no pop() blocks, so
  // none can queue while this runs.
  for (std::size_t n = consumers_.size(); n > 0; --n) {
    guest::Task* c = consumers_.front();
    consumers_.pop_front();
    c->wake_value = 0;  // woken by close: no item
    api_.wake_task(*c);
  }
}

}  // namespace irs::sync
