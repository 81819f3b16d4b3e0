#include "src/sim/event_queue.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace irs::sim {

namespace {

/// Comparator adapting the dispatch order to std::*_heap's max-heap
/// convention (the "latest" entry compares greatest, so the heap front is
/// the earliest).
struct Later {
  bool operator()(const QEntry& a, const QEntry& b) const {
    return entry_before(b, a);
  }
};

// ---------------------------------------------------------------------------
// Binary heap (reference oracle)
// ---------------------------------------------------------------------------

class BinaryHeapQueue final : public EventQueue {
 public:
  [[nodiscard]] QueueKind kind() const override {
    return QueueKind::kBinaryHeap;
  }
  [[nodiscard]] const char* name() const override { return "binary"; }

  void push(const QEntry& e) override {
    h_.push_back(e);
    std::push_heap(h_.begin(), h_.end(), Later{});
  }

  bool peek(QEntry* out) override {
    if (h_.empty()) return false;
    *out = h_.front();
    return true;
  }

  bool pop_until(Time deadline, QEntry* out) override {
    if (h_.empty() || h_.front().when > deadline) return false;
    std::pop_heap(h_.begin(), h_.end(), Later{});
    *out = h_.back();
    h_.pop_back();
    return true;
  }

  [[nodiscard]] std::size_t size() const override { return h_.size(); }

 private:
  std::vector<QEntry> h_;
};

// ---------------------------------------------------------------------------
// 4-ary implicit heap
// ---------------------------------------------------------------------------

/// Min-heap on {when, seq} with fan-out 4: children of node i are
/// 4i+1..4i+4. Depth is half a binary heap's, and the four children sit in
/// 96 contiguous bytes (two cache lines at worst), so a sift-down pays ~one
/// line fetch per level instead of two scattered ones. Non-virtual core so
/// the hybrid wheel can embed it as its spill structure without paying a
/// second dispatch.
class QuadHeap {
 public:
  void push(const QEntry& e) {
    h_.push_back(e);
    sift_up(h_.size() - 1);
  }

  [[nodiscard]] bool empty() const { return h_.empty(); }
  [[nodiscard]] std::size_t size() const { return h_.size(); }
  [[nodiscard]] const QEntry& top() const { return h_.front(); }

  void pop() {
    h_.front() = h_.back();
    h_.pop_back();
    if (!h_.empty()) sift_down(0);
  }

 private:
  void sift_up(std::size_t i) {
    const QEntry e = h_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!entry_before(e, h_[parent])) break;
      h_[i] = h_[parent];
      i = parent;
    }
    h_[i] = e;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = h_.size();
    const QEntry e = h_[i];
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + 4, n);
      std::size_t min_child = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (entry_before(h_[c], h_[min_child])) min_child = c;
      }
      if (!entry_before(h_[min_child], e)) break;
      h_[i] = h_[min_child];
      i = min_child;
    }
    h_[i] = e;
  }

  std::vector<QEntry> h_;
};

class QuadHeapQueue final : public EventQueue {
 public:
  [[nodiscard]] QueueKind kind() const override { return QueueKind::kQuadHeap; }
  [[nodiscard]] const char* name() const override { return "quad"; }

  void push(const QEntry& e) override { h_.push(e); }

  bool peek(QEntry* out) override {
    if (h_.empty()) return false;
    *out = h_.top();
    return true;
  }

  bool pop_until(Time deadline, QEntry* out) override {
    if (h_.empty() || h_.top().when > deadline) return false;
    *out = h_.top();
    h_.pop();
    return true;
  }

  [[nodiscard]] std::size_t size() const override { return h_.size(); }

 private:
  QuadHeap h_;
};

// ---------------------------------------------------------------------------
// Hybrid near-future wheel + spill heap
// ---------------------------------------------------------------------------

/// Timer wheel over kWheelBuckets buckets of 2^kDefaultWheelShift ns
/// (131 µs buckets, ~67 ms horizon — see the constant derivations in
/// event_queue.h), backed by an embedded 4-ary spill heap for every entry
/// the wheel cannot hold: entries at/behind the open bucket and entries
/// beyond the horizon. Pops merge the open bucket's sorted due list with
/// the heap top, so the {when, seq} order is exact whichever side an entry
/// landed on.
///
/// Bucket storage is one node pool shared by every bucket: a bucket is the
/// head of a singly linked list threaded through `nodes_`, and freed nodes
/// go on a free list. The pool grows to the high-water mark of
/// wheel-resident entries and is reused from then on, so a push costs no
/// allocation after warm-up and a fresh wheel makes a handful of pool
/// growths instead of one vector per touched bucket.
class HybridWheelQueue final : public EventQueue {
 public:
  HybridWheelQueue() { heads_.fill(kNil); }

  void push(const QEntry& e) override {
    const std::uint64_t idx =
        static_cast<std::uint64_t>(e.when) >> kDefaultWheelShift;
    if (idx > open_idx_ + kMask && wheel_count_ == 0 &&
        due_pos_ >= due_.size()) {
      // Wheel empty and the event is beyond the horizon (e.g. after a long
      // idle gap): teleport the cursor so the wheel keeps absorbing
      // near-future traffic around the new epoch.
      open_idx_ = idx - 1;
    }
    if (idx > open_idx_ && idx - open_idx_ <= kMask) {
      const std::size_t slot = static_cast<std::size_t>(idx) & kMask;
      std::uint32_t n = free_head_;
      if (n != kNil) {
        free_head_ = nodes_[n].next;
      } else {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      nodes_[n] = Node{e, heads_[slot]};
      heads_[slot] = n;
      words_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      ++wheel_count_;
      return;
    }
    heap_.push(e);  // behind the cursor, or beyond the horizon
  }

  bool peek(QEntry* out) override {
    const bool have_due = ensure_due();
    if (heap_.empty()) {
      if (!have_due) return false;
      *out = due_[due_pos_];
      return true;
    }
    if (have_due && entry_before(due_[due_pos_], heap_.top())) {
      *out = due_[due_pos_];
    } else {
      *out = heap_.top();
    }
    return true;
  }

  bool pop_until(Time deadline, QEntry* out) override {
    const bool have_due = ensure_due();
    if (heap_.empty() ||
        (have_due && entry_before(due_[due_pos_], heap_.top()))) {
      if (!have_due || due_[due_pos_].when > deadline) return false;
      *out = due_[due_pos_++];
    } else {
      if (heap_.top().when > deadline) return false;
      *out = heap_.top();
      heap_.pop();
    }
    return true;
  }

  [[nodiscard]] std::size_t size() const override {
    return heap_.size() + wheel_count_ + (due_.size() - due_pos_);
  }

  [[nodiscard]] QueueKind kind() const override {
    return QueueKind::kHybridWheel;
  }
  [[nodiscard]] const char* name() const override { return "wheel"; }

 private:
  static constexpr std::size_t kMask = kWheelBuckets - 1;
  static constexpr std::size_t kWords = kWheelBuckets / 64;
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// One wheel-resident entry and the next node of its bucket (or of the
  /// free list).
  struct Node {
    QEntry e;
    std::uint32_t next = kNil;
  };

  /// Refill the due list from the next non-empty wheel bucket. Returns true
  /// if due_[due_pos_] is valid afterwards.
  bool ensure_due() {
    if (due_pos_ < due_.size()) return true;
    due_.clear();
    due_pos_ = 0;
    if (wheel_count_ == 0) return false;
    const std::uint64_t idx = next_nonempty();
    open_idx_ = idx;
    const std::size_t slot = static_cast<std::size_t>(idx) & kMask;
    // Copy the bucket out and splice its whole list onto the free list.
    const std::uint32_t first = heads_[slot];
    std::uint32_t last = first;
    for (std::uint32_t n = first; n != kNil; n = nodes_[n].next) {
      due_.push_back(nodes_[n].e);
      last = n;
    }
    nodes_[last].next = free_head_;
    free_head_ = first;
    heads_[slot] = kNil;
    words_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    wheel_count_ -= due_.size();
    std::sort(due_.begin(), due_.end(),
              [](const QEntry& a, const QEntry& b) {
                return entry_before(a, b);
              });
    return true;
  }

  /// Absolute index of the first non-empty wheel bucket strictly after
  /// open_idx_. Requires wheel_count_ > 0; every resident entry is within
  /// one rotation of open_idx_, so a circular bitmap scan starting just
  /// past the open slot finds the minimum.
  [[nodiscard]] std::uint64_t next_nonempty() const {
    const std::size_t open_slot = static_cast<std::size_t>(open_idx_) & kMask;
    const std::size_t start = (open_slot + 1) & kMask;
    std::size_t w = start >> 6;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t scanned = 0; scanned <= kWords; ++scanned) {
      if (word != 0) {
        const std::size_t slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        const std::size_t delta = (slot - open_slot + kWheelBuckets) & kMask;
        return open_idx_ + delta;
      }
      w = (w + 1) & (kWords - 1);
      word = words_[w];
    }
    std::abort();  // unreachable: wheel_count_ > 0 implies a set bit
  }

  /// Per bucket, the first node of its list in `nodes_` (kNil: empty).
  std::array<std::uint32_t, kWheelBuckets> heads_;
  std::array<std::uint64_t, kWords> words_{};  // non-empty bucket bitmap
  std::vector<Node> nodes_;  // every bucket's entries, plus free nodes
  std::uint32_t free_head_ = kNil;
  /// Absolute index of the bucket last drained into `due_` (the "open"
  /// bucket). Monotone; only buckets strictly after it accept entries.
  std::uint64_t open_idx_ = 0;
  std::vector<QEntry> due_;  // open bucket, sorted ascending, consumed from
  std::size_t due_pos_ = 0;  // due_pos_
  std::size_t wheel_count_ = 0;  // entries resident in buckets

  QuadHeap heap_;  // behind-the-cursor + beyond-the-horizon spill
};

}  // namespace

bool parse_queue_kind(const char* s, QueueKind* out) {
  if (s == nullptr) return false;
  if (std::strcmp(s, "binary") == 0) {
    *out = QueueKind::kBinaryHeap;
  } else if (std::strcmp(s, "quad") == 0) {
    *out = QueueKind::kQuadHeap;
  } else if (std::strcmp(s, "wheel") == 0) {
    *out = QueueKind::kHybridWheel;
  } else {
    return false;
  }
  return true;
}

QueueKind default_queue_kind() {
  static const QueueKind kind = [] {
    QueueKind k = QueueKind::kHybridWheel;
    const char* env = std::getenv("IRS_ENGINE_QUEUE");
    if (env != nullptr && !parse_queue_kind(env, &k)) {
      throw std::invalid_argument(std::string("IRS_ENGINE_QUEUE='") + env +
                                  "' is not a queue backend (want binary, "
                                  "quad or wheel)");
    }
    return k;
  }();
  return kind;
}

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind) {
  switch (kind) {
    case QueueKind::kBinaryHeap:
      return std::make_unique<BinaryHeapQueue>();
    case QueueKind::kQuadHeap:
      return std::make_unique<QuadHeapQueue>();
    case QueueKind::kHybridWheel:
      break;
  }
  return std::make_unique<HybridWheelQueue>();
}

}  // namespace irs::sim
