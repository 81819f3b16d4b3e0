// Tests for the workload catalogue and behaviour models.
#include <gtest/gtest.h>

#include "src/exp/runner.h"
#include "src/wl/npb.h"
#include "src/wl/parallel_workload.h"
#include "src/wl/parsec.h"
#include "src/wl/registry.h"
#include "src/wl/serving.h"
#include "tests/helpers.h"

namespace irs::wl {
namespace {

core::World make_world(int pcpus = 4) {
  core::WorldConfig wc;
  wc.n_pcpus = pcpus;
  wc.seed = 3;
  return core::World(wc);
}

hv::VmConfig pinned4() {
  hv::VmConfig cfg;
  cfg.name = "vm";
  cfg.n_vcpus = 4;
  cfg.pin_map = {0, 1, 2, 3};
  return cfg;
}

TEST(Catalogue, ParsecHasTwelveApps) {
  EXPECT_EQ(parsec_specs().size(), 12u);
  for (const auto& s : parsec_specs()) {
    EXPECT_GT(s.work_per_thread, 0) << s.name;
    EXPECT_GT(s.granularity, 0) << s.name;
    EXPECT_GT(s.memory_intensity, 0.0) << s.name;
  }
}

TEST(Catalogue, NpbHasNineApps) {
  EXPECT_EQ(npb_specs().size(), 9u);
  EXPECT_EQ(npb_names().size(), 9u);
}

TEST(Catalogue, NpbWaitPolicySelectsBarrierKind) {
  EXPECT_EQ(npb_spec("MG", true).sync, SyncType::kBarrierSpinning);
  EXPECT_EQ(npb_spec("MG", false).sync, SyncType::kBarrierBlocking);
}

TEST(Catalogue, PaperCitedShapes) {
  // Shapes the paper states explicitly.
  EXPECT_EQ(parsec_spec("raytrace").sync, SyncType::kWorkSteal);
  EXPECT_EQ(parsec_spec("dedup").sync, SyncType::kPipeline);
  EXPECT_EQ(parsec_spec("dedup").stages, 4);
  EXPECT_EQ(parsec_spec("ferret").sync, SyncType::kPipeline);
  EXPECT_EQ(parsec_spec("ferret").stages, 5);
  EXPECT_EQ(parsec_spec("x264").sync, SyncType::kMutex);
  EXPECT_EQ(parsec_spec("blackscholes").sync, SyncType::kBarrierBlocking);
  // lu coarser than cg (paper: lu ~30s, cg fine-grained).
  EXPECT_GT(npb_spec("LU").granularity, npb_spec("CG").granularity);
}

TEST(Registry, ResolvesAllNames) {
  for (const auto& n : parsec_names()) EXPECT_TRUE(workload_exists(n)) << n;
  for (const auto& n : npb_names()) EXPECT_TRUE(workload_exists(n)) << n;
  EXPECT_TRUE(workload_exists("specjbb"));
  EXPECT_TRUE(workload_exists("ab"));
  EXPECT_TRUE(workload_exists("frontend"));
  EXPECT_TRUE(workload_exists("hog"));
  EXPECT_FALSE(workload_exists("nonexistent"));
}

TEST(Registry, WorkScaleShrinksRuntime) {
  WorkloadOptions small;
  small.work_scale = 0.1;
  auto w = make_workload("blackscholes", small);
  auto* pw = dynamic_cast<ParallelWorkload*>(w.get());
  ASSERT_NE(pw, nullptr);
  EXPECT_EQ(pw->spec().work_per_thread,
            parsec_spec("blackscholes").work_per_thread / 10);
}

TEST(PhasedShape, DerivesRoundsAndPhases) {
  AppSpec spec;
  spec.sync = SyncType::kMutexBarrier;
  spec.work_per_thread = sim::milliseconds(100);
  spec.granularity = sim::milliseconds(1);
  spec.cs_fraction = 0.25;
  const PhasedShape s = make_phased_shape(spec, 4, false, nullptr);
  EXPECT_EQ(s.rounds_per_phase, 4);
  EXPECT_EQ(s.n_phases, 25);  // 100ms / (4 * 1ms)
  EXPECT_EQ(s.cs_len, sim::microseconds(250));
  EXPECT_EQ(s.outside_len, sim::microseconds(750));
}

TEST(PhasedShape, BarrierOnlyHasNoLockSplit) {
  AppSpec spec;
  spec.sync = SyncType::kBarrierBlocking;
  spec.work_per_thread = sim::milliseconds(100);
  spec.granularity = sim::milliseconds(2);
  const PhasedShape s = make_phased_shape(spec, 4, false, nullptr);
  EXPECT_EQ(s.rounds_per_phase, 1);
  EXPECT_EQ(s.cs_len, 0);
  EXPECT_EQ(s.outside_len, sim::milliseconds(2));
  EXPECT_EQ(s.n_phases, 50);
}

class WorkloadRun : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadRun, CompletesAloneAndDoesExpectedWork) {
  core::World w = make_world();
  const auto vm = w.add_vm(pinned4(), false);
  WorkloadOptions opts;
  opts.work_scale = 0.1;  // keep tests fast
  auto& wl = w.attach(vm, make_workload(GetParam(), opts));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(30))) << GetParam();
  // Useful compute should be close to threads * scaled work (pipeline apps
  // have stages*threads tasks; just require non-trivial progress).
  EXPECT_GT(wl.useful_compute(), 0);
  EXPECT_GT(wl.progress(), 0.0);
  for (const guest::Task* t : wl.tasks()) {
    EXPECT_TRUE(t->finished()) << t->name();
    EXPECT_EQ(t->locks_held, 0) << t->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Parsec, WorkloadRun,
                         ::testing::Values("blackscholes", "dedup",
                                           "streamcluster", "canneal",
                                           "fluidanimate", "vips", "bodytrack",
                                           "ferret", "swaptions", "x264",
                                           "raytrace", "facesim"));
INSTANTIATE_TEST_SUITE_P(Npb, WorkloadRun,
                         ::testing::Values("BT", "LU", "CG", "EP", "FT", "IS",
                                           "MG", "SP", "UA"));

TEST(WorkloadRun, ParallelAppUsesAllCpusAlone) {
  core::World w = make_world();
  const auto vm = w.add_vm(pinned4(), false);
  WorkloadOptions opts;
  opts.work_scale = 0.2;
  auto& wl = w.attach(vm, make_workload("blackscholes", opts));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(10)));
  // 4 threads, 4 vCPUs: makespan close to per-thread work.
  const double work_s =
      sim::to_sec(parsec_spec("blackscholes").work_per_thread) * 0.2;
  EXPECT_LT(sim::to_sec(wl.makespan_end()), work_s * 1.25);
}

TEST(WorkloadRun, PipelineConservesItems) {
  core::World w = make_world();
  const auto vm = w.add_vm(pinned4(), false);
  WorkloadOptions opts;
  opts.work_scale = 0.05;
  auto& wl = w.attach(vm, make_workload("dedup", opts));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(30)));
  // Progress counts items retired at the last stage; every produced item
  // must come out.
  const auto spec = parsec_spec("dedup");
  const int expected_items = static_cast<int>(
      spec.work_per_thread * 0.05 * 4 / spec.granularity);
  EXPECT_NEAR(wl.progress(), expected_items, 1.0);
}

TEST(WorkloadRun, EndlessWorkloadNeverFinishes) {
  core::World w = make_world();
  const auto vm = w.add_vm(pinned4(), false);
  auto& wl = w.attach(vm, make_workload("streamcluster", {}, /*endless=*/true));
  w.start();
  w.run_for(sim::seconds(1));
  EXPECT_FALSE(wl.finished());
  const double p1 = wl.progress();
  EXPECT_GT(p1, 0.0);
  w.run_for(sim::seconds(1));
  EXPECT_GT(wl.progress(), p1);  // still making progress
}

TEST(WorkloadRun, HogNeverFinishes) {
  core::World w = make_world(1);
  hv::VmConfig cfg;
  cfg.name = "vm";
  cfg.n_vcpus = 1;
  cfg.pin_map = {0};
  const auto vm = w.add_vm(cfg, false);
  WorkloadOptions opts;
  opts.n_threads = 1;
  auto& wl = w.attach(vm, make_workload("hog", opts));
  w.start();
  w.run_for(sim::seconds(1));
  EXPECT_FALSE(wl.finished());
  EXPECT_NEAR(sim::to_sec(wl.useful_compute()), 1.0, 0.02);
}

TEST(Server, JbbRecordsThroughputAndLatency) {
  core::World w = make_world();
  const auto vm = w.add_vm(pinned4(), false);
  WorkloadOptions opts;
  opts.server_duration = sim::milliseconds(500);
  auto& wl = w.attach(vm, make_workload("specjbb", opts));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(5)));
  const Serving* jbb = wl.serving();
  ASSERT_NE(jbb, nullptr);
  EXPECT_GT(jbb->throughput(), 1000.0);  // ~400us txns on 4 cpus
  EXPECT_GT(jbb->latency().count(), 100u);
  EXPECT_GE(jbb->latency().percentile(99), jbb->latency().percentile(50));
  // Closed loops never touch the front-end's conservation ledger.
  EXPECT_TRUE(jbb->frontend_result().empty());
}

TEST(Server, AbHasManyMoreThreadsThanCpus) {
  core::World w = make_world();
  const auto vm = w.add_vm(pinned4(), false);
  WorkloadOptions opts;
  opts.server_duration = sim::milliseconds(300);
  auto& wl = w.attach(vm, make_workload("ab", opts));
  w.start();
  ASSERT_TRUE(w.run_until_finished(vm, sim::seconds(60)));
  EXPECT_EQ(wl.tasks().size(), 512u);
  const Serving* ab = wl.serving();
  ASSERT_NE(ab, nullptr);
  EXPECT_GT(ab->latency().count(), 500u);
  // Deep queues: p99 latency far above service time.
  EXPECT_GT(ab->latency().percentile(99), sim::milliseconds(20));
}

TEST(Server, JbbSpinLockMakesLhpAttributionNonzeroUnderHog) {
  // The jbb_cs_spin knob turns the critical section into a ticket spinlock
  // whose waiters burn CPU instead of yielding; with a hog preempting the
  // lock holder's vCPU the hypervisor must observe lock-holder preemption.
  exp::ScenarioConfig cfg;
  cfg.fg = "specjbb";
  cfg.strategy = core::Strategy::kBaseline;
  cfg.bg = "hog";
  cfg.n_inter = 4;
  cfg.server_duration = sim::milliseconds(400);
  cfg.jbb_cs_len = sim::microseconds(300);
  cfg.jbb_cs_every = 1;
  cfg.jbb_cs_spin = true;
  const exp::RunResult spin = exp::run_scenario(cfg);
  ASSERT_TRUE(spin.finished);
  EXPECT_GT(spin.throughput, 0.0);
  EXPECT_GT(spin.lhp, 0u);
}

TEST(Histogram, PercentilesAndMean) {
  core::Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.mean(), 50);
  EXPECT_EQ(h.percentile(0), 1);
  EXPECT_EQ(h.percentile(100), 100);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 50.0, 1.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 99.0, 1.0);
  EXPECT_EQ(h.max(), 100);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0);
}

TEST(SyncTypeNames, AllDistinct) {
  EXPECT_STREQ(sync_type_name(SyncType::kWorkSteal), "work-steal");
  EXPECT_STRNE(sync_type_name(SyncType::kBarrierBlocking),
               sync_type_name(SyncType::kBarrierSpinning));
}

}  // namespace
}  // namespace irs::wl
