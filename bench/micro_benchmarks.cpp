// google-benchmark micro-benchmarks of the simulator substrate itself:
// event engine throughput, RNG, scheduler hot paths, and whole-simulation
// event rates. These guard against performance regressions that would make
// the figure benches impractically slow.
#include <benchmark/benchmark.h>

#include "src/core/world.h"
#include "src/exp/runner.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"
#include "src/wl/registry.h"

namespace {

using namespace irs;

void BM_EngineScheduleDispatch(benchmark::State& state) {
  sim::Engine eng;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    eng.schedule(1, [&] { ++sink; });
    eng.run_until(eng.now() + 2);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineScheduleDispatch);

void BM_EngineCancel(benchmark::State& state) {
  sim::Engine eng;
  for (auto _ : state) {
    auto h = eng.schedule(1000, [] {});
    h.cancel();
  }
  // Drain the cancelled shells.
  eng.run_until(eng.now() + 10000);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineCancel);

/// The combined hot-path churn BENCH_sweep.json tracks: each iteration
/// schedules one event that fires and one that is cancelled, then
/// dispatches — 3 engine operations. Exercises slot reuse, shell skipping,
/// and inline callback storage together.
void BM_EngineScheduleCancelDispatch(benchmark::State& state) {
  sim::Engine eng;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    eng.schedule(1, [&] { ++sink; });
    auto h = eng.schedule(1000, [&] { ++sink; });
    h.cancel();
    eng.run_until(eng.now() + 2);
  }
  eng.run_until(eng.now() + 10000);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(3 * state.iterations()));
}
BENCHMARK(BM_EngineScheduleCancelDispatch);

/// Deep-queue behaviour: keep 512 events in flight so extraction walks
/// real structure depth (the slab keeps entries POD-sized; this is where
/// the old std::function heap paid most). Per-backend variants (arg 0:
/// 0=binary, 1=quad, 2=wheel) in two shapes (arg 1):
///   * tight — events 1 ns apart. All land in one wheel bucket slice, so
///     every backend degenerates to its heap; measures pure sift cost on
///     an L1-resident queue.
///   * timer — events 100 µs apart, the dense tick/slice/softirq cadence
///     the wheel is built for: 512 in flight spread ~51 ms across the
///     wheel horizon, so pushes are O(1) bucket appends and pops drain
///     1-2 entry buckets.
void BM_EngineDeepQueue(benchmark::State& state) {
  const auto kind = static_cast<sim::QueueKind>(state.range(0));
  const sim::Duration spacing =
      state.range(1) == 0 ? 1 : sim::microseconds(100);
  sim::Engine eng(kind);
  std::uint64_t sink = 0;
  for (int i = 0; i < 512; ++i) {
    eng.schedule((i + 1) * spacing, [&] { ++sink; });
  }
  for (auto _ : state) {
    // Refill behind the horizon, then dispatch exactly the front event.
    eng.schedule(513 * spacing, [&] { ++sink; });
    eng.run_until(eng.now() + spacing);
  }
  eng.run();
  benchmark::DoNotOptimize(sink);
  state.SetLabel(std::string(eng.queue_name()) +
                 (state.range(1) == 0 ? "/tight" : "/timer"));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineDeepQueue)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"backend", "shape"});

void BM_RngU64(benchmark::State& state) {
  sim::Rng rng(42);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= rng.next_u64();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngU64);

void BM_RngJittered(benchmark::State& state) {
  sim::Rng rng(42);
  sim::Duration sink = 0;
  for (auto _ : state) {
    sink += rng.jittered(sim::milliseconds(1), 0.2);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngJittered);

/// Simulated-time throughput of the full two-level stack: how many
/// simulated milliseconds per wall second for the standard 2-VM topology.
void BM_FullSimulation(benchmark::State& state) {
  const std::string app = state.range(0) == 0 ? "streamcluster" : "UA";
  for (auto _ : state) {
    state.PauseTiming();
    core::WorldConfig wc;
    wc.strategy = core::Strategy::kIrs;
    wc.seed = 5;
    core::World world(wc);
    hv::VmConfig fg{.name = "fg", .n_vcpus = 4, .weight = 256,
                    .pin_map = {0, 1, 2, 3}};
    const auto fg_id = world.add_vm(fg, true);
    wl::WorkloadOptions opts;
    opts.endless = true;
    world.attach(fg_id, wl::make_workload(app, opts));
    hv::VmConfig bg{.name = "bg", .n_vcpus = 1, .weight = 256,
                    .pin_map = {0}};
    const auto bg_id = world.add_vm(bg, false);
    wl::WorkloadOptions hog_opts;
    hog_opts.n_threads = 1;
    world.attach(bg_id, wl::make_workload("hog", hog_opts));
    world.start();
    state.ResumeTiming();
    world.run_for(sim::milliseconds(100));
    benchmark::DoNotOptimize(world.engine().dispatched());
  }
  state.SetLabel(app + ": simulated-100ms per iteration");
}
BENCHMARK(BM_FullSimulation)->Arg(0)->Arg(1);

/// End-to-end scenario cost (what one figure data point costs).
void BM_ScenarioRun(benchmark::State& state) {
  for (auto _ : state) {
    exp::ScenarioConfig cfg;
    cfg.fg = "blackscholes";
    cfg.strategy = core::Strategy::kIrs;
    cfg.work_scale = 0.1;
    cfg.seed = 7;
    const exp::RunResult r = exp::run_scenario(cfg);
    benchmark::DoNotOptimize(r.fg_makespan);
  }
}
BENCHMARK(BM_ScenarioRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
