// obs::RunstateReplay: one hand-built record sequence per rule, then whole
// traced runs checked against the hypervisor's own runstate accounting.
#include "src/obs/runstate.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/world.h"
#include "src/exp/runner.h"
#include "src/obs/attribution.h"
#include "src/wl/registry.h"

namespace irs::obs {
namespace {

using sim::TraceKind;

const char* class_name(StealClass c) {
  switch (c) {
    case StealClass::kLhp: return "lhp";
    case StealClass::kLwp: return "lwp";
    case StealClass::kThrottle: return "throttle";
    case StealClass::kPlain: return "plain";
  }
  return "?";
}

/// Logs every hook call as one line.
struct Log : RunstateHooks {
  std::vector<std::string> lines;

  static std::string window(int vcpu, const StealWindow& w) {
    return "v" + std::to_string(vcpu) + " " + class_name(w.cls) +
           (w.wake ? " wake" : "") + " task " + std::to_string(w.task) +
           " lock '" + w.lock.c_str() + "'";
  }
  void span_open(int vcpu, const CpuSpan& s) {
    lines.push_back("+cpu v" + std::to_string(vcpu) + " p" +
                    std::to_string(s.pcpu) + " @" + std::to_string(s.start));
  }
  void span_close(int vcpu, const CpuSpan& s, sim::Time end) {
    lines.push_back("-cpu v" + std::to_string(vcpu) + " p" +
                    std::to_string(s.pcpu) + " " + std::to_string(s.start) +
                    ".." + std::to_string(end));
  }
  void window_open(int vcpu, StealWindow& w) {
    lines.push_back("+steal " + window(vcpu, w) + " @" +
                    std::to_string(w.start));
  }
  void window_close(int vcpu, const StealWindow& w, sim::Time end) {
    lines.push_back("-steal " + window(vcpu, w) + " " +
                    std::to_string(w.start) + ".." + std::to_string(end));
  }
};

sim::TraceRecord rec(sim::Time when, TraceKind k, std::int32_t vcpu,
                     std::int32_t b = -1, const char* note = "",
                     std::int32_t c = -1) {
  return sim::TraceRecord{when, k, vcpu, b, c, note};
}

TEST(RunstateReplay, EachRuleOnAHandBuiltSequence) {
  // Every row ends with finish(10).
  struct Row {
    const char* rule;
    std::vector<sim::TraceRecord> records;
    std::vector<std::string> want;
  };
  const Row rows[] = {
      {"an LHP classes the preemption, keeping its lock and task",
       {rec(1, TraceKind::kHvSchedule, 0, 0),
        rec(3, TraceKind::kLhp, 0, 0, "runq", 5),
        rec(3, TraceKind::kHvPreempt, 0, 0),
        rec(5, TraceKind::kHvSchedule, 0, 1)},
       {"+cpu v0 p0 @1", "-cpu v0 p0 1..3",
        "+steal v0 lhp task 5 lock 'runq' @3",
        "-steal v0 lhp task 5 lock 'runq' 3..5", "+cpu v0 p1 @5",
        "-cpu v0 p1 5..10"}},
      {"an LWP recorded after an LHP wins",
       {rec(1, TraceKind::kHvSchedule, 0, 0),
        rec(3, TraceKind::kLhp, 0, 0, "runq", 5),
        rec(3, TraceKind::kLwp, 0, 0, "flock", 6),
        rec(3, TraceKind::kHvPreempt, 0, 0),
        rec(5, TraceKind::kHvSchedule, 0, 0)},
       {"+cpu v0 p0 @1", "-cpu v0 p0 1..3",
        "+steal v0 lwp task 6 lock 'flock' @3",
        "-steal v0 lwp task 6 lock 'flock' 3..5", "+cpu v0 p0 @5",
        "-cpu v0 p0 5..10"}},
      {"a \"throttle\" note classes an unclassified preemption",
       {rec(1, TraceKind::kHvSchedule, 0, 0),
        rec(3, TraceKind::kHvPreempt, 0, 0, "throttle"),
        rec(5, TraceKind::kHvSchedule, 0, 0)},
       {"+cpu v0 p0 @1", "-cpu v0 p0 1..3",
        "+steal v0 throttle task -1 lock '' @3",
        "-steal v0 throttle task -1 lock '' 3..5", "+cpu v0 p0 @5",
        "-cpu v0 p0 5..10"}},
      {"a plain preemption",
       {rec(1, TraceKind::kHvSchedule, 0, 0),
        rec(3, TraceKind::kHvPreempt, 0, 0),
        rec(5, TraceKind::kHvSchedule, 0, 0)},
       {"+cpu v0 p0 @1", "-cpu v0 p0 1..3",
        "+steal v0 plain task -1 lock '' @3",
        "-steal v0 plain task -1 lock '' 3..5", "+cpu v0 p0 @5",
        "-cpu v0 p0 5..10"}},
      {"a wake of an off-CPU vCPU opens a plain window",
       {rec(2, TraceKind::kHvWake, 0, 0),
        rec(4, TraceKind::kHvSchedule, 0, 0)},
       {"+steal v0 plain wake task -1 lock '' @2",
        "-steal v0 plain wake task -1 lock '' 2..4", "+cpu v0 p0 @4",
        "-cpu v0 p0 4..10"}},
      {"a wake while on-CPU is ignored",
       {rec(1, TraceKind::kHvSchedule, 0, 0), rec(2, TraceKind::kHvWake, 0, 0),
        rec(4, TraceKind::kHvBlock, 0, 0)},
       {"+cpu v0 p0 @1", "-cpu v0 p0 1..4"}},
      {"a wake with a window open keeps the earlier opening",
       {rec(1, TraceKind::kHvSchedule, 0, 0),
        rec(3, TraceKind::kHvPreempt, 0, 0), rec(4, TraceKind::kHvWake, 0, 0),
        rec(6, TraceKind::kHvSchedule, 0, 0)},
       {"+cpu v0 p0 @1", "-cpu v0 p0 1..3",
        "+steal v0 plain task -1 lock '' @3",
        "-steal v0 plain task -1 lock '' 3..6", "+cpu v0 p0 @6",
        "-cpu v0 p0 6..10"}},
      {"a block with a window open closes it",
       {rec(2, TraceKind::kHvWake, 0, 0), rec(3, TraceKind::kHvBlock, 0, 0)},
       {"+steal v0 plain wake task -1 lock '' @2",
        "-steal v0 plain wake task -1 lock '' 2..3"}},
      {"a block drops the pending class",
       {rec(1, TraceKind::kHvSchedule, 0, 0),
        rec(2, TraceKind::kLhp, 0, 0, "runq", 5),
        rec(2, TraceKind::kHvBlock, 0, 0), rec(4, TraceKind::kHvWake, 0, 0),
        rec(5, TraceKind::kHvSchedule, 0, 0),
        rec(7, TraceKind::kHvPreempt, 0, 0)},
       {"+cpu v0 p0 @1", "-cpu v0 p0 1..2",
        "+steal v0 plain wake task -1 lock '' @4",
        "-steal v0 plain wake task -1 lock '' 4..5", "+cpu v0 p0 @5",
        "-cpu v0 p0 5..7", "+steal v0 plain task -1 lock '' @7",
        "-steal v0 plain task -1 lock '' 7..10"}},
      {"a schedule of an on-CPU vCPU splits the span",
       {rec(1, TraceKind::kHvSchedule, 0, 0),
        rec(4, TraceKind::kHvSchedule, 0, 1)},
       {"+cpu v0 p0 @1", "-cpu v0 p0 1..4", "+cpu v0 p1 @4",
        "-cpu v0 p1 4..10"}},
      {"trace end closes what is open in vCPU-id order",
       {rec(1, TraceKind::kHvSchedule, 2, 0), rec(2, TraceKind::kHvWake, 1, 0),
        rec(3, TraceKind::kHvSchedule, 0, 1)},
       {"+cpu v2 p0 @1", "+steal v1 plain wake task -1 lock '' @2",
        "+cpu v0 p1 @3", "-cpu v0 p1 3..10",
        "-steal v1 plain wake task -1 lock '' 2..10", "-cpu v2 p0 1..10"}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.rule);
    RunstateReplay replay;
    Log log;
    for (const sim::TraceRecord& r : row.records) replay.step(r, log);
    replay.finish(10, log);
    EXPECT_EQ(log.lines, row.want);
  }
}

// --- the replay against the hypervisor's accounting -------------------------

/// Per-vCPU on-CPU and steal time, summed from the hooks.
struct Totals : RunstateHooks {
  std::map<int, sim::Duration> on_cpu, steal;

  void span_close(int vcpu, const CpuSpan& s, sim::Time end) {
    on_cpu[vcpu] += end - s.start;
  }
  void window_close(int vcpu, const StealWindow& w, sim::Time end) {
    steal[vcpu] += end - w.start;
  }
};

TEST(RunstateReplay, MatchesTheHypervisorsRunstateAccounting) {
  // Every strategy on a blocking app and a server, each VM unpinned so the
  // scheduler also steals work between pCPUs, with a ring that never
  // wraps. The replay's on-CPU plus steal time is the time each vCPU was
  // running or runnable. Its steal is exactly the runnable time unless the
  // guest acknowledged an SA by yielding, which no record shows (the
  // replay keeps such a vCPU on-CPU until it next runs).
  for (const core::Strategy s : {core::Strategy::kBaseline,
                                 core::Strategy::kPle,
                                 core::Strategy::kRelaxedCo,
                                 core::Strategy::kIrs,
                                 core::Strategy::kDelayPreempt,
                                 core::Strategy::kIrsPull}) {
    for (const char* app : {"streamcluster", "ab"}) {
      SCOPED_TRACE(std::string(core::strategy_name(s)) + " " + app);
      core::WorldConfig wc;
      wc.n_pcpus = 4;
      wc.strategy = s;
      wc.seed = 3;
      wc.trace_capacity = 1 << 20;
      core::World world(wc);
      hv::VmConfig fg_cfg;
      fg_cfg.name = "fg";
      fg_cfg.n_vcpus = 4;
      const hv::VmId fg = world.add_vm(fg_cfg, /*irs_capable=*/true);
      wl::WorkloadOptions fo;
      fo.work_scale = 0.05;
      fo.server_duration = sim::milliseconds(100);
      world.attach(fg, wl::make_workload(app, fo));
      hv::VmConfig bg_cfg;
      bg_cfg.name = "bg0";
      bg_cfg.n_vcpus = 2;
      const hv::VmId bg = world.add_vm(bg_cfg, /*irs_capable=*/false);
      wl::WorkloadOptions bo;
      bo.n_threads = 2;
      world.attach(bg, wl::make_workload("hog", bo, /*endless=*/true));
      world.start();
      ASSERT_TRUE(world.run_until_finished(fg, sim::seconds(20)));

      const sim::Trace& trace = world.host().trace();
      ASSERT_EQ(trace.dropped(), 0u);
      const std::vector<sim::TraceRecord> records = trace.snapshot();
      const sim::Time now = world.engine().now();
      RunstateReplay replay;
      Totals t;
      for (const sim::TraceRecord& r : records) replay.step(r, t);
      replay.finish(now, t);

      TraceMeta meta;
      meta.end = now;
      sim::Duration steal_sum = 0;
      for (const hv::VmId vm : {fg, bg}) {
        const bool yields = world.kernel(vm).stats().sa_replied_yield > 0;
        int idx = 0;
        for (const hv::Vcpu* v : world.host().vm(vm).vcpus()) {
          SCOPED_TRACE("vcpu " + std::to_string(v->id()));
          meta.vcpus.push_back(
              VcpuInfo{v->id(), world.host().vm(vm).name(), idx++});
          const sim::Duration running = v->time_running(now);
          const sim::Duration runnable = v->time_runnable(now);
          EXPECT_EQ(t.on_cpu[v->id()] + t.steal[v->id()], running + runnable);
          if (yields) {
            EXPECT_LE(t.steal[v->id()], runnable);
          } else {
            EXPECT_EQ(t.steal[v->id()], runnable);
          }
          steal_sum += t.steal[v->id()];
        }
      }
      EXPECT_GT(steal_sum, 0);
      EXPECT_EQ(attribute(records, meta).total_steal, steal_sum);
    }
  }
}

// --- what the hypervisor writes ---------------------------------------------

TEST(HvTrace, OneScheduleRecordPerScheduleTaggedWhenStolen) {
  // Unpinned, idle pCPUs steal queued vCPUs. Each steal is one schedule,
  // so it writes one kHvSchedule record, noted "steal".
  exp::ScenarioConfig cfg;
  cfg.fg = "streamcluster";
  cfg.strategy = core::Strategy::kIrs;
  cfg.pinned = false;
  cfg.work_scale = 0.2;
  cfg.trace_capacity = 1 << 20;
  exp::TraceDump dump;
  const exp::RunResult r =
      exp::run_scenario(cfg, exp::RunCapture{.dump = &dump});
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(dump.meta.dropped, 0u);
  std::set<std::pair<sim::Time, std::int32_t>> seen;
  std::uint64_t steals = 0;
  for (const sim::TraceRecord& rec : dump.records) {
    if (rec.kind != TraceKind::kHvSchedule) continue;
    EXPECT_TRUE(seen.emplace(rec.when, rec.a).second)
        << "vCPU " << rec.a << " scheduled twice at " << rec.when;
    if (rec.note == "steal") ++steals;
  }
  EXPECT_GT(steals, 0u);
}

}  // namespace
}  // namespace irs::obs
