// obs::Attribution unit tests: hand-built traces with known steal windows
// and LHP/LWP classifications, so every charge is verifiable by arithmetic,
// plus an end-to-end check on a real 2-VM scenario run.
#include "src/obs/attribution.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/exp/report.h"
#include "src/exp/runner.h"

namespace irs::obs {
namespace {

using sim::TraceKind;

class TraceBuilder {
 public:
  void add(sim::Time when, TraceKind k, std::int32_t a, std::int32_t b,
           const char* note = "", std::int32_t c = -1) {
    rs_.push_back(sim::TraceRecord{when, k, a, b, c, note});
  }
  [[nodiscard]] const std::vector<sim::TraceRecord>& records() const {
    return rs_;
  }

 private:
  std::vector<sim::TraceRecord> rs_;
};

TraceMeta two_vm_meta() {
  TraceMeta m;
  m.n_pcpus = 2;
  m.vcpus = {{0, "fg", 0}, {1, "fg", 1}, {2, "bg0", 0}};
  m.tasks = {{101, "fg", "worker0"}, {102, "fg", "worker1"}};
  m.start = 0;
  m.end = sim::milliseconds(10);
  return m;
}

TEST(ObsAttribution, ChargesWindowsToTasksAndLocks) {
  TraceBuilder t;
  // Guest lanes: worker0 on vCPU 0, worker1 on vCPU 1 from t=1ms.
  t.add(sim::milliseconds(1), TraceKind::kGuestSwitch, 0, 101);
  t.add(sim::milliseconds(1), TraceKind::kGuestSwitch, 1, 102);
  // LHP window on vCPU 0: classified at deschedule, preempted 2ms..5ms.
  t.add(sim::milliseconds(2), TraceKind::kLhp, 0, 0, "runq", 101);
  t.add(sim::milliseconds(2), TraceKind::kHvPreempt, 0, 0);
  t.add(sim::milliseconds(5), TraceKind::kHvSchedule, 0, 0);
  // LWP window on vCPU 1: spinning on "flock", preempted 4ms..6ms.
  t.add(sim::milliseconds(4), TraceKind::kLwp, 1, 1, "flock", 102);
  t.add(sim::milliseconds(4), TraceKind::kHvPreempt, 1, 1);
  t.add(sim::milliseconds(6), TraceKind::kHvSchedule, 1, 1);
  // Plain runnable-wait on vCPU 0: blocked at 6ms, woke at 7ms, placed at
  // 8ms. (The hypervisor records a wake only for a blocked vCPU.)
  t.add(sim::milliseconds(6), TraceKind::kHvBlock, 0, 0);
  t.add(sim::milliseconds(7), TraceKind::kHvWake, 0, 0);
  t.add(sim::milliseconds(8), TraceKind::kHvSchedule, 0, 0);
  // Window still open at the trace end: vCPU 1 preempted at 9ms.
  t.add(sim::milliseconds(9), TraceKind::kHvPreempt, 1, 1);

  const AttributionResult a = attribute(t.records(), two_vm_meta());

  // 3 + 2 + 1 + (10-9) = 7ms of steal, all charged.
  EXPECT_EQ(a.total_steal, sim::milliseconds(7));
  EXPECT_EQ(a.charged, sim::milliseconds(7));
  EXPECT_EQ(a.uncharged, 0);
  EXPECT_GE(a.coverage(), 0.95);
  EXPECT_EQ(a.head_truncated_at, -1);

  ASSERT_EQ(a.tasks.size(), 2u);
  // Sorted largest-total first: worker0 4ms > worker1 3ms.
  const TaskCharge& w0 = a.tasks[0];
  EXPECT_EQ(w0.label, "fg/worker0");
  EXPECT_EQ(w0.task, 101);
  EXPECT_EQ(w0.total, sim::milliseconds(4));
  EXPECT_EQ(w0.lhp, sim::milliseconds(3));
  EXPECT_EQ(w0.lwp, 0);
  EXPECT_EQ(w0.windows, 2u);
  ASSERT_EQ(w0.by_lock.count("runq"), 1u);
  EXPECT_EQ(w0.by_lock.at("runq"), sim::milliseconds(3));

  const TaskCharge& w1 = a.tasks[1];
  EXPECT_EQ(w1.label, "fg/worker1");
  EXPECT_EQ(w1.total, sim::milliseconds(3));
  EXPECT_EQ(w1.lhp, 0);
  EXPECT_EQ(w1.lwp, sim::milliseconds(2));
  ASSERT_EQ(w1.by_lock.count("flock"), 1u);
  EXPECT_EQ(w1.by_lock.at("flock"), sim::milliseconds(2));
}

TEST(ObsAttribution, IdleVcpuWindowsGoUncharged) {
  TraceBuilder t;
  // vCPU 2 never ran a guest task (no kGuestSwitch): 1ms preempted.
  t.add(sim::milliseconds(3), TraceKind::kHvPreempt, 2, 1);
  t.add(sim::milliseconds(4), TraceKind::kHvSchedule, 2, 1);
  const AttributionResult a = attribute(t.records(), two_vm_meta());
  EXPECT_EQ(a.total_steal, sim::milliseconds(1));
  EXPECT_EQ(a.charged, 0);
  EXPECT_EQ(a.uncharged, sim::milliseconds(1));
  EXPECT_TRUE(a.tasks.empty());
}

TEST(ObsAttribution, BlockCancelsOpenWindow) {
  TraceBuilder t;
  t.add(sim::milliseconds(1), TraceKind::kGuestSwitch, 0, 101);
  // Woken but blocked again before getting a pCPU. The hypervisor never
  // records this (it blocks only a running vCPU), so the one runstate rule
  // applies: the block closes the window, and the wait until it counts.
  t.add(sim::milliseconds(2), TraceKind::kHvWake, 0, 0);
  t.add(sim::milliseconds(3), TraceKind::kHvBlock, 0, 0);
  const AttributionResult a = attribute(t.records(), two_vm_meta());
  EXPECT_EQ(a.total_steal, sim::milliseconds(1));
  ASSERT_EQ(a.tasks.size(), 1u);
  EXPECT_EQ(a.tasks[0].task, 101);
  EXPECT_EQ(a.tasks[0].total, sim::milliseconds(1));
}

TEST(ObsAttribution, TruncatedHeadIsExplicitAndNeverMischarged) {
  TraceBuilder t;
  // The ring wrapped: the kHvPreempt that opened vCPU 0's window was
  // dropped; the snapshot starts mid-window at 5ms.
  t.add(sim::milliseconds(5), TraceKind::kGuestSwitch, 0, 101);
  t.add(sim::milliseconds(6), TraceKind::kHvSchedule, 0, 0);
  TraceMeta m = two_vm_meta();
  m.dropped = 3;
  m.total_recorded = 5;
  const AttributionResult a = attribute(t.records(), m);
  // The head is reported, and the half-open window is not charged.
  EXPECT_EQ(a.head_truncated_at, sim::milliseconds(5));
  EXPECT_EQ(a.total_steal, 0);
  EXPECT_TRUE(a.tasks.empty());
}

TEST(ObsAttribution, LwpClassificationWinsOverStaleLhp) {
  TraceBuilder t;
  t.add(sim::milliseconds(1), TraceKind::kGuestSwitch, 0, 101);
  // Both classifications land before the preempt; the later one (LWP,
  // recorded second) must win.
  t.add(sim::milliseconds(2), TraceKind::kLhp, 0, 0, "runq", 101);
  t.add(sim::milliseconds(2), TraceKind::kLwp, 0, 0, "flock", 101);
  t.add(sim::milliseconds(2), TraceKind::kHvPreempt, 0, 0);
  t.add(sim::milliseconds(3), TraceKind::kHvSchedule, 0, 0);
  const AttributionResult a = attribute(t.records(), two_vm_meta());
  ASSERT_EQ(a.tasks.size(), 1u);
  EXPECT_EQ(a.tasks[0].lwp, sim::milliseconds(1));
  EXPECT_EQ(a.tasks[0].lhp, 0);
  EXPECT_EQ(a.tasks[0].by_lock.at("flock"), sim::milliseconds(1));
}

TEST(ObsAttribution, ReportRenderingIsWellFormed) {
  TraceBuilder t;
  t.add(sim::milliseconds(1), TraceKind::kGuestSwitch, 0, 101);
  t.add(sim::milliseconds(2), TraceKind::kLhp, 0, 0, "runq", 101);
  t.add(sim::milliseconds(2), TraceKind::kHvPreempt, 0, 0);
  t.add(sim::milliseconds(5), TraceKind::kHvSchedule, 0, 0);
  TraceMeta m = two_vm_meta();
  m.dropped = 1;
  const AttributionResult a = attribute(t.records(), m);

  std::ostringstream os;
  exp::print_attribution(os, a);
  const std::string text = os.str();
  EXPECT_NE(text.find("fg/worker0"), std::string::npos) << text;
  EXPECT_NE(text.find("head truncated"), std::string::npos) << text;
}

TEST(ObsAttribution, TwoVmScenarioChargesMeasuredSteal) {
  // End-to-end: a real 2-VM interference run. The sum of the attribution
  // windows must reconstruct the steal time the runstate accounting
  // measured, and nearly all of it must land on specific tasks (the hog
  // keeps the bg lane busy, the fg workers keep theirs).
  exp::ScenarioConfig cfg;
  cfg.fg = "blackscholes";
  cfg.n_threads = 2;
  cfg.n_vcpus = 2;
  cfg.n_pcpus = 2;
  cfg.strategy = core::Strategy::kBaseline;
  cfg.work_scale = 0.05;
  cfg.seed = 7;
  cfg.trace_capacity = 1 << 20;  // large enough that nothing drops

  exp::TraceDump dump;
  const exp::RunResult r =
      exp::run_scenario(cfg, exp::RunCapture{.dump = &dump});
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(dump.meta.dropped, 0u);

  const AttributionResult a = attribute(dump.records, dump.meta);
  EXPECT_EQ(a.head_truncated_at, -1);
  EXPECT_GT(a.total_steal, 0);
  EXPECT_EQ(a.charged + a.uncharged, a.total_steal);
  // >= 95% of the steal is charged to named tasks (acceptance criterion).
  EXPECT_GE(a.coverage(), 0.95) << "charged " << a.charged << " of "
                                << a.total_steal;
  ASSERT_FALSE(a.tasks.empty());
  for (const TaskCharge& c : a.tasks) {
    EXPECT_NE(c.label.find('/'), std::string::npos) << c.label;
    EXPECT_GT(c.windows, 0u);
  }
}

}  // namespace
}  // namespace irs::obs
