// Allocation bounds of the event engine on its default queue, counted by
// a replacement global operator new. This is its own executable: the
// replacement would hide the sanitizers' new/delete-mismatch checks from
// the main suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_new(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a non-zero multiple of the alignment.
  const std::size_t size = n == 0 ? a : (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form, so each allocation and its release pair up
// whichever form the library picks.
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_new(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace irs;

/// Self-rescheduling chains: each firing re-queues its chain 0–60 ms
/// ahead, so the chains keep the wheel's buckets (its horizon is ~67 ms)
/// and the occasional behind-cursor spill busy. The callback captures one
/// pointer, so it lives in the engine's inline buffer.
struct Chains {
  sim::Engine eng{sim::QueueKind::kHybridWheel};
  sim::Rng rng{20261020};

  void fire() {
    const auto delay = static_cast<sim::Duration>(
        rng.next_below(static_cast<std::uint64_t>(sim::milliseconds(60)) + 1));
    eng.schedule(delay, [this] { fire(); });
  }

  void start(int n) {
    for (int i = 0; i < n; ++i) fire();
  }
};

constexpr int kChains = 300;

TEST(EngineAllocations, FreshWheelEngineGrowsItsPoolsOnly) {
  // Engine construction, the first schedules and 20K dispatches: the slot
  // slab, the bucket node pool, the due list and the spill heap each grow
  // to their high-water marks a few doublings at a time, and nothing else
  // allocates. With one vector per wheel bucket this read 1,682.
  const std::uint64_t before = g_news.load();
  {
    auto chains = std::make_unique<Chains>();
    chains->start(kChains);
    const auto out = chains->eng.run(20'000);
    EXPECT_EQ(out.dispatched, 20'000u);
  }
  EXPECT_LE(g_news.load() - before, 64u);
}

TEST(EngineAllocations, WarmWheelEngineDispatchesWithoutAllocating) {
  // Warm-up: every pool reaches its high-water mark. The rare peaks come
  // late (with this seed a bucket first holds more than 8 entries near
  // event 150K, and two behind-cursor spills first coexist near 420K), so
  // the warm-up is as long as the stretch it measures.
  Chains chains;
  chains.start(kChains);
  chains.eng.run(1'000'000);
  const std::uint64_t before = g_news.load();
  const auto out = chains.eng.run(1'000'000);
  const std::uint64_t allocations = g_news.load() - before;
  EXPECT_EQ(out.dispatched, 1'000'000u);
  EXPECT_EQ(chains.eng.queued(), static_cast<std::size_t>(kChains));
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
