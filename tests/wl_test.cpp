// Tests for the workload catalogue and behaviour models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/runner.h"
#include "src/guest/sched_api.h"
#include "src/wl/behavior.h"
#include "src/wl/hog.h"
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
  EXPECT_EQ(npb_names().size(), 9u);
}

TEST(Catalogue, NpbSpecsAreWellFormedUnderBothWaitPolicies) {
  // Every NPB app is a barrier code whose wait policy picks only the
  // barrier kind: the rest of the spec is the same under both.
  for (const auto& n : npb_names()) {
    const AppSpec spin = npb_spec(n, true);
    const AppSpec block = npb_spec(n, false);
    EXPECT_EQ(spin.name, n);
    EXPECT_GT(spin.work_per_thread, 0) << n;
    EXPECT_GT(spin.granularity, 0) << n;
    EXPECT_GT(spin.memory_intensity, 0.0) << n;
    EXPECT_EQ(spin.sync, SyncType::kBarrierSpinning) << n;
    EXPECT_EQ(block.sync, SyncType::kBarrierBlocking) << n;
    EXPECT_EQ(block.name, spin.name);
    EXPECT_EQ(block.work_per_thread, spin.work_per_thread) << n;
    EXPECT_EQ(block.granularity, spin.granularity) << n;
    EXPECT_EQ(block.memory_intensity, spin.memory_intensity) << n;
  }
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

TEST(Registry, ResolvesAllNamesAndRejectsNoThreads) {
  // Every name builds a workload, and none takes fewer than one thread:
  // n_threads < 1 fails naming it, never runs on a default.
  std::vector<std::string> names = parsec_names();
  for (const auto& n : npb_names()) names.push_back(n);
  for (const char* n : {"specjbb", "ab", "frontend", "hog"}) names.push_back(n);
  WorkloadOptions none;
  none.n_threads = 0;
  for (const std::string& n : names) {
    EXPECT_NO_THROW(make_workload(n)) << n;
    try {
      make_workload(n, none);
      ADD_FAILURE() << n << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("n_threads must be >= 1 (got 0)"),
                std::string::npos)
          << n << ": " << e.what();
    }
  }
  EXPECT_THROW(make_workload("nonexistent"), std::invalid_argument);
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

/// SchedApi for primitives that are only named, never operated on.
class UnusedSched final : public guest::SchedApi {
 public:
  void wake_task(guest::Task&) override {}
  [[nodiscard]] bool task_executing(const guest::Task&) const override {
    return false;
  }
  void spin_granted(guest::Task&) override {}
};

/// One phased sync type and the action kinds of one of its phases:
/// C compute, L lock, U unlock, B barrier.
struct PhasedCase {
  SyncType sync;
  const char* name;
  const char* phase;
  int n_phases;  // of 8 ms of work in 1 ms rounds
};

void PrintTo(const PhasedCase& c, std::ostream* os) { *os << c.name; }

class PhasedScript : public ::testing::TestWithParam<PhasedCase> {};

/// Kinds of the actions `b` issues, up to and including a finish or
/// `limit` actions. Checks each compute against its jitter band and each
/// lock and barrier against the shape's own primitives.
std::string run_script(PhasedBehavior& b, const PhasedShape& s, int limit) {
  guest::Task t(0, "t", &b, sim::Rng(5));
  std::string kinds;
  bool inside = false;
  for (int i = 0; i < limit; ++i) {
    const guest::Action a = b.next(t, 0, t.rng());
    switch (a.kind) {
      case guest::ActionKind::kCompute: {
        kinds += 'C';
        const double mean =
            static_cast<double>(inside ? s.cs_len : s.outside_len);
        EXPECT_GE(static_cast<double>(a.dur), mean * (1 - s.spec.jitter) - 1);
        EXPECT_LE(static_cast<double>(a.dur), mean * (1 + s.spec.jitter));
        break;
      }
      case guest::ActionKind::kLock:
        kinds += 'L';
        EXPECT_EQ(a.mtx, s.mutex);
        inside = true;
        break;
      case guest::ActionKind::kUnlock:
        kinds += 'U';
        EXPECT_EQ(a.mtx, s.mutex);
        inside = false;
        break;
      case guest::ActionKind::kBarrier:
        kinds += 'B';
        EXPECT_EQ(a.bar, s.barrier);
        break;
      case guest::ActionKind::kFinish:
        return kinds + 'F';
      default:
        kinds += '?';
        break;
    }
  }
  return kinds;
}

TEST_P(PhasedScript, IssuesTheShapesPhaseUntilItsWorkIsDone) {
  // A bounded task repeats its sync type's phase n_phases times, bumping
  // the work counter once per phase, then finishes; an endless one never
  // finishes. Locks and barriers are the ones the workload made.
  const PhasedCase& c = GetParam();
  AppSpec spec;
  spec.sync = c.sync;
  spec.work_per_thread = sim::milliseconds(8);
  spec.granularity = sim::milliseconds(1);
  spec.cs_fraction = 0.25;
  spec.jitter = 0.1;
  UnusedSched api;
  sync::Mutex mutex(api, "mtx");
  sync::Barrier barrier(api, 2, sync::BarrierKind::kBlocking, "bar");
  const std::string phase = c.phase;
  const bool locks = phase.find('L') != std::string::npos;
  const bool barriers = phase.find('B') != std::string::npos;

  std::uint64_t work = 0;
  PhasedShape bounded = make_phased_shape(spec, 2, false, &work);
  ASSERT_EQ(bounded.n_phases, c.n_phases);
  if (locks) bounded.mutex = &mutex;
  if (barriers) bounded.barrier = &barrier;
  PhasedBehavior once(bounded);
  std::string want;
  for (int i = 0; i < c.n_phases; ++i) want += phase;
  EXPECT_EQ(run_script(once, bounded, 1000), want + 'F');
  EXPECT_EQ(work, static_cast<std::uint64_t>(c.n_phases));

  PhasedShape endless = make_phased_shape(spec, 2, true, nullptr);
  if (locks) endless.mutex = &mutex;
  if (barriers) endless.barrier = &barrier;
  PhasedBehavior forever(endless);
  const int limit = static_cast<int>(3 * want.size());
  EXPECT_EQ(run_script(forever, endless, limit), want + want + want);
}

INSTANTIATE_TEST_SUITE_P(
    PhasedTypes, PhasedScript,
    ::testing::Values(
        PhasedCase{SyncType::kBarrierBlocking, "BarrierBlocking", "CB", 8},
        PhasedCase{SyncType::kBarrierSpinning, "BarrierSpinning", "CB", 8},
        PhasedCase{SyncType::kMutex, "Mutex", "CLCU", 8},
        PhasedCase{SyncType::kMutexBarrier, "MutexBarrier",
                   "CLCUCLCUCLCUCLCUB", 2}),
    [](const ::testing::TestParamInfo<PhasedCase>& info) {
      return std::string(info.param.name);
    });

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

TEST(WorkloadRun, GatedHogBurnsOnlyWhileItsGateIsOpen) {
  // The replica half of cluster live migration, on one host: behind a
  // closed gate the hog parks and its vCPU blocks; opened and woken, it
  // burns the whole CPU; closed again, it parks at its next burst
  // boundary.
  core::World w = make_world(1);
  hv::VmConfig cfg;
  cfg.name = "vm";
  cfg.n_vcpus = 1;
  cfg.pin_map = {0};
  const auto vm = w.add_vm(cfg, false);
  bool gate = false;
  auto& wl = w.attach(vm, std::make_unique<HogWorkload>(1, &gate));
  w.start();
  w.run_for(sim::milliseconds(100));
  EXPECT_EQ(wl.useful_compute(), 0);
  EXPECT_EQ(w.host().vm(vm).vcpu(0).state(), hv::VcpuState::kBlocked);

  gate = true;
  for (guest::Task* t : wl.tasks()) w.kernel(vm).wake_task(*t);
  w.run_for(sim::milliseconds(100));
  const sim::Duration open = wl.useful_compute();
  EXPECT_NEAR(sim::to_ms(open), 100.0, 2.0);

  gate = false;
  w.run_for(sim::milliseconds(100));
  // Only the rest of the burst in flight when the gate closed.
  EXPECT_LE(wl.useful_compute() - open, kHogBurst + kHogBurst / 20);
  EXPECT_EQ(w.host().vm(vm).vcpu(0).state(), hv::VcpuState::kBlocked);
  EXPECT_FALSE(wl.finished());
}

TEST(HogBehavior, BurstsStayWithinFivePercentOfTheBurstLength) {
  HogBehavior hog;
  guest::Task t(0, "hog.0", &hog, sim::Rng(3));
  sim::Duration lo = kHogBurst;
  sim::Duration hi = kHogBurst;
  double sum = 0;
  constexpr int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const guest::Action a = hog.next(t, 0, t.rng());
    ASSERT_EQ(a.kind, guest::ActionKind::kCompute);
    lo = std::min(lo, a.dur);
    hi = std::max(hi, a.dur);
    sum += static_cast<double>(a.dur);
  }
  EXPECT_GE(lo, kHogBurst - kHogBurst / 20);
  EXPECT_LE(hi, kHogBurst + kHogBurst / 20);
  EXPECT_LT(lo, hi);  // jittered, not constant
  // Uniform over the band: the mean sits within 0.5% of the burst.
  EXPECT_NEAR(sum / kDraws / static_cast<double>(kHogBurst), 1.0, 0.005);
}

TEST(HogBehavior, GatedHogParksOrBurstsLikeUngated) {
  // A closed gate parks the task without an RNG draw, so a replica's
  // burst-jitter stream does not depend on how long it sat parked. An open
  // gate bursts exactly as an ungated hog does.
  bool gate = false;
  HogBehavior gated(&gate);
  HogBehavior ungated;
  guest::Task t(0, "hog.0", &gated, sim::Rng(11));
  sim::Rng before = t.rng();
  const guest::Action parked = gated.next(t, 0, t.rng());
  EXPECT_EQ(parked.kind, guest::ActionKind::kSleep);
  EXPECT_EQ(parked.dur, kHogPark);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t.rng().next_u64(), before.next_u64());

  gate = true;
  sim::Rng ref_rng = t.rng();
  const guest::Action burst = gated.next(t, 0, t.rng());
  const guest::Action ref = ungated.next(t, 0, ref_rng);
  EXPECT_EQ(burst.kind, guest::ActionKind::kCompute);
  EXPECT_EQ(ref.kind, guest::ActionKind::kCompute);
  EXPECT_EQ(burst.dur, ref.dur);
  EXPECT_GT(burst.dur, 0);
  EXPECT_EQ(t.rng().next_u64(), ref_rng.next_u64());  // same draws taken
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

}  // namespace
}  // namespace irs::wl
