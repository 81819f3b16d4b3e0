// Integration tests: the paper's headline effects must reproduce in the
// simulator (shapes, not absolute numbers).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/cluster/cluster.h"
#include "src/exp/runner.h"
#include "src/exp/scenarios.h"

namespace irs::exp {
namespace {

ScenarioConfig quick(const std::string& fg, core::Strategy s,
                     const std::string& bg = "hog", int n_inter = 1) {
  ScenarioConfig cfg;
  cfg.fg = fg;
  cfg.strategy = s;
  cfg.bg = bg;
  cfg.n_inter = n_inter;
  cfg.work_scale = 0.5;
  cfg.seed = 21;
  return cfg;
}

TEST(Integration, InterferenceSlowsBlockingApps) {
  // Fig. 1a: blocking-sync apps slow down well beyond their fair-share
  // loss (they lose ~12.5% of capacity but slow down by >40%).
  const double slow = fig1a_slowdown("fluidanimate", 33);
  EXPECT_GT(slow, 1.4);
  EXPECT_LT(slow, 3.5);
}

TEST(Integration, WorkStealingAppIsResilient) {
  // Fig. 1a: raytrace absorbs the interference via user-level balancing.
  const double slow = fig1a_slowdown("raytrace", 33);
  EXPECT_LT(slow, 1.35);
}

TEST(Integration, MigrationLatencyGrowsWithContention) {
  // Fig. 1b: each co-located VM adds roughly a scheduling slice to the
  // stop-migration latency.
  const auto alone = fig1b_migration_latency(0, 12, 3);
  const auto one = fig1b_migration_latency(1, 12, 3);
  const auto two = fig1b_migration_latency(2, 12, 3);
  const auto three = fig1b_migration_latency(3, 12, 3);
  EXPECT_LT(alone.mean_ms, 2.0);
  EXPECT_GT(one.mean_ms, 4.0);
  EXPECT_GT(two.mean_ms, one.mean_ms * 1.3);
  EXPECT_GT(three.mean_ms, two.mean_ms * 1.15);
}

TEST(Integration, BlockingAppUtilizationDropsUnderInterference) {
  // Fig. 2: blocking-sync apps fall well short of their fair share.
  const RunResult r =
      run_scenario(quick("streamcluster", core::Strategy::kBaseline));
  EXPECT_LT(r.fg_util_vs_fair, 0.8);
}

TEST(Integration, WorkStealUtilizationStaysNearFair) {
  // Fig. 2: raytrace uses nearly its full share despite interference.
  const RunResult r =
      run_scenario(quick("raytrace", core::Strategy::kBaseline));
  EXPECT_GT(r.fg_util_vs_fair, 0.9);
}

TEST(Integration, IrsImprovesBlockingWorkloads) {
  const RunResult base =
      run_scenario(quick("fluidanimate", core::Strategy::kBaseline));
  const RunResult irs =
      run_scenario(quick("fluidanimate", core::Strategy::kIrs));
  // Paper Fig. 5: ~30-42% for heavy blocking sync at 1-inter.
  EXPECT_GT(improvement_pct(base, irs), 15.0);
  // IRS recovers most of the lost utilisation.
  EXPECT_GT(irs.fg_util_vs_fair, base.fg_util_vs_fair + 0.1);
}

TEST(Integration, IrsImprovesSpinningWorkloads) {
  const RunResult base = run_scenario(quick("UA", core::Strategy::kBaseline));
  const RunResult irs = run_scenario(quick("UA", core::Strategy::kIrs));
  EXPECT_GT(improvement_pct(base, irs), 3.0);
}

TEST(Integration, IrsNearNeutralForPipelineApps) {
  // Paper: dedup/ferret have many ready threads per vCPU; plain Linux
  // balancing already copes, IRS adds little.
  const RunResult base =
      run_scenario(quick("dedup", core::Strategy::kBaseline));
  const RunResult irs = run_scenario(quick("dedup", core::Strategy::kIrs));
  EXPECT_NEAR(improvement_pct(base, irs), 0.0, 10.0);
}

TEST(Integration, IrsNearNeutralForWorkStealApps) {
  const RunResult base =
      run_scenario(quick("raytrace", core::Strategy::kBaseline));
  const RunResult irs = run_scenario(quick("raytrace", core::Strategy::kIrs));
  EXPECT_NEAR(improvement_pct(base, irs), 0.0, 12.0);
}

TEST(Integration, LhpEventsDetectedForLockHeavyApps) {
  ScenarioConfig cfg = quick("x264", core::Strategy::kBaseline, "hog", 2);
  cfg.work_scale = 1.0;  // enough preemptions to land inside a CS
  const RunResult r = run_scenario(cfg);
  EXPECT_GT(r.lhp, 0u);
}

TEST(Integration, IrsEliminatesLhp) {
  // With IRS the holder is descheduled by the context switcher *before*
  // the hypervisor preemption lands, so no LHP events are charged.
  const RunResult r = run_scenario(quick("x264", core::Strategy::kIrs));
  EXPECT_EQ(r.lhp, 0u);
  EXPECT_GT(r.sa_sent, 0u);
}

TEST(Integration, RelaxedCoHurtsBlockingWorkloads) {
  // Fine-grained blocking sync is the case the paper calls out: deceptive
  // idleness counts as progress, so relaxed-co stops the wrong vCPUs.
  const RunResult base =
      run_scenario(quick("streamcluster", core::Strategy::kBaseline));
  const RunResult co =
      run_scenario(quick("streamcluster", core::Strategy::kRelaxedCo));
  EXPECT_LT(improvement_pct(base, co), 0.0);
}

TEST(Integration, DeterministicAcrossRuns) {
  const ScenarioConfig cfg = quick("streamcluster", core::Strategy::kIrs);
  const RunResult a = run_scenario(cfg);
  const RunResult b = run_scenario(cfg);
  EXPECT_EQ(a.fg_makespan, b.fg_makespan);
  EXPECT_EQ(a.sa_sent, b.sa_sent);
  EXPECT_EQ(a.lhp, b.lhp);
  EXPECT_DOUBLE_EQ(a.bg_progress_rate, b.bg_progress_rate);
}

TEST(Integration, SeedChangesResults) {
  ScenarioConfig cfg = quick("streamcluster", core::Strategy::kIrs);
  const RunResult a = run_scenario(cfg);
  cfg.seed = 99;
  const RunResult b = run_scenario(cfg);
  EXPECT_NE(a.fg_makespan, b.fg_makespan);
}

TEST(Integration, ServerLatencyImprovesUnderIrs) {
  ScenarioConfig cfg = quick("specjbb", core::Strategy::kBaseline);
  cfg.server_duration = sim::seconds(2);
  const RunResult base = run_scenario(cfg);
  cfg.strategy = core::Strategy::kIrs;
  const RunResult irs = run_scenario(cfg);
  // Paper Fig. 8: average transaction latency and throughput both improve
  // (lock-holder freezes no longer stall the other warehouses).
  EXPECT_LT(irs.lat_mean, base.lat_mean);
  EXPECT_GT(irs.throughput, base.throughput);
}

TEST(Integration, WeightedSpeedupAboveParityForGoodCases) {
  ScenarioConfig cfg = quick("streamcluster", core::Strategy::kBaseline,
                             "fluidanimate", 2);
  const RunResult base = run_scenario(cfg);
  cfg.strategy = core::Strategy::kIrs;
  const RunResult irs = run_scenario(cfg);
  // Fig. 7: weighted speedup above 100% (parity) for sync-heavy fg.
  EXPECT_GT(weighted_speedup_pct(base, irs), 100.0);
}

TEST(Integration, FourInterGainsAreSmallOrNegative) {
  // Fig. 5/6: with every vCPU interfered, migration has nowhere good to
  // go; gains shrink towards zero (possibly negative).
  ScenarioConfig base_cfg = quick("streamcluster", core::Strategy::kBaseline,
                                  "hog", 4);
  const RunResult base = run_scenario(base_cfg);
  base_cfg.strategy = core::Strategy::kIrs;
  const RunResult irs = run_scenario(base_cfg);
  EXPECT_LT(improvement_pct(base, irs), 25.0);
}

TEST(Integration, BenchSeedsRespectsEnv) {
  EXPECT_GE(bench_seeds(), 1);
}

TEST(Integration, BadConfigsThrowInvalidArgument) {
  // Each bad input fails with a message naming the problem, in every
  // build — never an out-of-bounds pin, a silent run, or an abort.
  struct BadConfig {
    const char* what;
    void (*apply)(ScenarioConfig*);
    const char* message;
  };
  const BadConfig table[] = {
      {"interference pinned past the last pCPU",
       [](ScenarioConfig* c) { c->n_inter = 9; }, "pinned to pCPU 4"},
      {"negative interfering vCPUs",
       [](ScenarioConfig* c) { c->n_inter = -1; }, "n_inter must be >= 0"},
      {"negative interfering VMs",
       [](ScenarioConfig* c) { c->n_bg_vms = -3; }, "n_bg_vms must be >= 0"},
      {"no pCPUs, unpinned",
       [](ScenarioConfig* c) {
         c->n_pcpus = 0;
         c->pinned = false;
       },
       "n_pcpus must be >= 1"},
      {"no pCPUs per cluster host",
       [](ScenarioConfig* c) {
         c->n_pcpus = 0;
         c->cluster.n_hosts = 2;
       },
       "n_pcpus must be >= 1"},
      {"no foreground vCPUs, unpinned",
       [](ScenarioConfig* c) {
         c->n_vcpus = 0;
         c->pinned = false;
       },
       "n_vcpus must be >= 1"},
      {"no foreground threads",
       [](ScenarioConfig* c) { c->fg_threads = 0; }, "fg_threads must be >= 1"},
      {"unknown cluster policy",
       [](ScenarioConfig* c) {
         c->cluster.n_hosts = 2;
         c->cluster.policy = "bogus";
       },
       "unknown cluster policy 'bogus'"},
      {"unknown foreground workload",
       [](ScenarioConfig* c) { c->fg = "nope"; }, "unknown workload 'nope'"},
      {"unknown background workload",
       [](ScenarioConfig* c) { c->bg = "nope"; }, "unknown workload 'nope'"},
      {"unknown front-end overload policy",
       [](ScenarioConfig* c) {
         c->fg = "frontend";
         c->fe_overload = "nope";
       },
       "unknown overload policy 'nope'"},
      {"unknown front-end arrival process",
       [](ScenarioConfig* c) {
         c->fg = "frontend";
         c->fe_arrival = "nope";
       },
       "unknown arrival process 'nope'"},
      {"negative front-end arrival rate",
       [](ScenarioConfig* c) {
         c->fg = "frontend";
         c->fe_rate_hz = -5.0;
       },
       "fe_rate_hz must be >= 0"},
      {"negative front-end queue cap",
       [](ScenarioConfig* c) {
         c->fg = "frontend";
         c->fe_queue_cap = -1;
       },
       "fe_queue_cap must be >= 0"},
      {"zero serving time",
       [](ScenarioConfig* c) {
         c->fg = "specjbb";
         c->server_duration = 0;
       },
       "server_duration must be > 0"},
      {"negative serving time",
       [](ScenarioConfig* c) {
         c->fg = "frontend";
         c->server_duration = -5;
       },
       "server_duration must be > 0"},
      {"zero timeout", [](ScenarioConfig* c) { c->timeout = 0; },
       "timeout must be > 0"},
      {"negative timeout", [](ScenarioConfig* c) { c->timeout = -1; },
       "timeout must be > 0"},
      {"zero work scale", [](ScenarioConfig* c) { c->work_scale = 0; },
       "work_scale must be finite and > 0"},
      {"negative work scale", [](ScenarioConfig* c) { c->work_scale = -1; },
       "work_scale must be finite and > 0"},
      {"NaN work scale",
       [](ScenarioConfig* c) { c->work_scale = std::nan(""); },
       "work_scale must be finite and > 0"},
      {"infinite work scale",
       [](ScenarioConfig* c) {
         c->work_scale = std::numeric_limits<double>::infinity();
       },
       "work_scale must be finite and > 0"},
      // A period that is not positive re-arms its event at the same
      // instant forever (before these checks, the run never returned).
      {"zero hypervisor time slice",
       [](ScenarioConfig* c) { c->hv.time_slice = 0; },
       "HvConfig.time_slice must be > 0 (got 0)"},
      {"zero hypervisor tick", [](ScenarioConfig* c) { c->hv.tick_period = 0; },
       "HvConfig.tick_period must be > 0 (got 0)"},
      {"negative credit accounting period",
       [](ScenarioConfig* c) { c->hv.accounting_period = -1; },
       "HvConfig.accounting_period must be > 0 (got -1)"},
      {"zero hypervisor tick on a cluster host",
       [](ScenarioConfig* c) {
         c->cluster.n_hosts = 2;
         c->hv.tick_period = 0;
       },
       "HvConfig.tick_period must be > 0 (got 0)"},
      {"zero guest tick", [](ScenarioConfig* c) { c->fg_guest.tick_period = 0; },
       "GuestConfig.tick_period must be > 0 (got 0)"},
      {"zero guest tick on a cluster host",
       [](ScenarioConfig* c) {
         c->cluster.n_hosts = 2;
         c->fg_guest.tick_period = 0;
       },
       "GuestConfig.tick_period must be > 0 (got 0)"},
      // Tunables without a meaning at 0 or below. Before these checks each
      // ran silently: an SA ack cap of 0 ran IRS as Baseline, and -3 hosts
      // ran one.
      {"zero SA ack cap", [](ScenarioConfig* c) { c->hv.sa_ack_cap = 0; },
       "HvConfig.sa_ack_cap must be > 0 (got 0)"},
      {"negative PLE window",
       [](ScenarioConfig* c) { c->hv.ple_window = -1; },
       "HvConfig.ple_window must be > 0 (got -1)"},
      {"negative guest balance interval",
       [](ScenarioConfig* c) { c->fg_guest.balance_interval = -1; },
       "GuestConfig.balance_interval must be > 0 (got -1)"},
      {"zero CFS latency",
       [](ScenarioConfig* c) { c->fg_guest.sched_latency = 0; },
       "GuestConfig.sched_latency must be > 0 (got 0)"},
      {"zero CFS granularity",
       [](ScenarioConfig* c) { c->fg_guest.min_granularity = 0; },
       "GuestConfig.min_granularity must be > 0 (got 0)"},
      // Before these checks, credits_per_tick -100 ran streamcluster at
      // 1.06x its fair share, a Relaxed-Co skew threshold of 0 took 646 ms
      // against 506, and a negative steal_avg_tau ran IRS as Baseline.
      {"negative credits per tick",
       [](ScenarioConfig* c) { c->hv.credits_per_tick = -100; },
       "HvConfig.credits_per_tick must be > 0 (got -100)"},
      {"zero credit cap", [](ScenarioConfig* c) { c->hv.credit_cap = 0; },
       "HvConfig.credit_cap must be > 0 (got 0)"},
      {"zero Delay-Preempt cap",
       [](ScenarioConfig* c) { c->hv.delay_preempt_cap = 0; },
       "HvConfig.delay_preempt_cap must be > 0 (got 0)"},
      {"zero co-scheduling skew threshold",
       [](ScenarioConfig* c) { c->hv.co_skew_threshold = 0; },
       "HvConfig.co_skew_threshold must be > 0 (got 0)"},
      {"negative co-stop duration",
       [](ScenarioConfig* c) { c->hv.co_stop_duration = -1; },
       "HvConfig.co_stop_duration must be > 0 (got -1)"},
      {"negative vCPU switch cost",
       [](ScenarioConfig* c) { c->hv.vcpu_switch_cost = -1; },
       "HvConfig.vcpu_switch_cost must be >= 0 (got -1)"},
      {"negative PLE exit cost",
       [](ScenarioConfig* c) { c->hv.ple_exit_cost = -1; },
       "HvConfig.ple_exit_cost must be >= 0 (got -1)"},
      {"zero steal-average time constant",
       [](ScenarioConfig* c) { c->fg_guest.steal_avg_tau = 0; },
       "GuestConfig.steal_avg_tau must be > 0 (got 0)"},
      {"zero migration tag cap",
       [](ScenarioConfig* c) { c->fg_guest.tag_ttl = 0; },
       "GuestConfig.tag_ttl must be > 0 (got 0)"},
      {"negative wakeup granularity",
       [](ScenarioConfig* c) { c->fg_guest.wakeup_granularity = -1; },
       "GuestConfig.wakeup_granularity must be >= 0 (got -1)"},
      {"negative guest context switch cost",
       [](ScenarioConfig* c) { c->fg_guest.ctx_switch_cost = -1; },
       "GuestConfig.ctx_switch_cost must be >= 0 (got -1)"},
      {"negative idle poll period",
       [](ScenarioConfig* c) { c->fg_guest.idle_poll_period = -1; },
       "GuestConfig.idle_poll_period must be >= 0 (got -1)"},
      {"negative SA handler cost",
       [](ScenarioConfig* c) { c->fg_guest.sa_handler_cost = -1; },
       "GuestConfig.sa_handler_cost must be >= 0 (got -1)"},
      {"negative migrator cost",
       [](ScenarioConfig* c) { c->fg_guest.migrator_cost = -1; },
       "GuestConfig.migrator_cost must be >= 0 (got -1)"},
      {"negative migration cache penalty",
       [](ScenarioConfig* c) { c->fg_guest.migration_cache_penalty = -1; },
       "GuestConfig.migration_cache_penalty must be >= 0 (got -1)"},
      {"negative host count",
       [](ScenarioConfig* c) { c->cluster.n_hosts = -3; },
       "cluster.n_hosts must be >= 0 (got -3)"},
  };
  for (const BadConfig& bad : table) {
    ScenarioConfig cfg = quick("streamcluster", core::Strategy::kIrs);
    cfg.work_scale = 0.05;
    bad.apply(&cfg);
    try {
      run_scenario(cfg);
      ADD_FAILURE() << bad.what << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad.message), std::string::npos)
          << bad.what << ": " << e.what();
    }
  }
  // The cluster's own cadences, checked by the Cluster constructor.
  for (const bool collect : {true, false}) {
    cluster::ClusterConfig cc;
    (collect ? cc.collect_period : cc.decide_period) = 0;
    try {
      cluster::Cluster cl(cc);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    collect ? "ClusterConfig.collect_period must be > 0"
                            : "ClusterConfig.decide_period must be > 0"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace irs::exp
