// Figure 8 — multi-threaded server workloads under IRS: throughput and
// latency improvement vs vanilla Xen/Linux with 1-4 CPU hogs.
// SPECjbb-like: 4 warehouses (1:1 threads:vCPUs); ab-like: 512 connection
// threads. PLE/Relaxed-Co have little effect on these (little spinning /
// synchronisation) and are not reported, as in the paper.
#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "src/obs/forensics.h"
#include "src/obs/slo.h"

int main() {
  using namespace irs;
  const int seeds = exp::bench_seeds();

  exp::banner(std::cout, "Figure 8(a): server throughput improvement (IRS)");
  exp::Table thr({"workload", "1-inter", "2-inter", "3-inter", "4-inter"});
  exp::banner(std::cerr, "(running...)");
  exp::Table lat({"workload", "metric", "1-inter", "2-inter", "3-inter",
                  "4-inter"});

  // Register the full app x inter x {baseline, IRS} grid, run it in one
  // parallel sweep, then format.
  bench::SweepGrid grid;
  struct Point {
    std::size_t base;
    std::size_t irs;
  };
  std::vector<std::vector<Point>> points;  // [app][inter-1]
  const std::vector<std::string> apps = {"specjbb", "ab"};
  for (const auto& app : apps) {
    std::vector<Point> row;
    for (int n = 1; n <= 4; ++n) {
      bench::PanelOptions o;
      exp::ScenarioConfig base_cfg =
          bench::make_cfg(app, core::Strategy::kBaseline, n, o);
      base_cfg.server_duration = sim::seconds(2);
      exp::ScenarioConfig irs_cfg = base_cfg;
      irs_cfg.strategy = core::Strategy::kIrs;
      row.push_back(Point{grid.add(base_cfg, seeds), grid.add(irs_cfg, seeds)});
    }
    points.push_back(std::move(row));
  }
  // Open-loop cells for Figure 8(e): the "frontend" workload's arrivals
  // keep coming during hog-induced freezes (no closed-loop back-off), so
  // interference surfaces as queue growth, drops/sheds, and p999 blowups
  // the jbb/ab panels cannot show. Two overload arms: tail-drop and
  // SLO-burn shedding.
  std::vector<std::vector<Point>> open_points;  // [policy][inter-1]
  const std::vector<std::string> policies = {"drop", "shed"};
  for (const auto& ov : policies) {
    std::vector<Point> row;
    for (int n = 1; n <= 4; ++n) {
      bench::PanelOptions o;
      exp::ScenarioConfig base_cfg =
          bench::make_cfg("frontend", core::Strategy::kBaseline, n, o);
      base_cfg.server_duration = sim::seconds(2);
      base_cfg.fe_overload = ov;
      exp::ScenarioConfig irs_cfg = base_cfg;
      irs_cfg.strategy = core::Strategy::kIrs;
      row.push_back(Point{grid.add(base_cfg, seeds), grid.add(irs_cfg, seeds)});
    }
    open_points.push_back(std::move(row));
  }
  grid.run();

  for (std::size_t a = 0; a < apps.size(); ++a) {
    const std::string& app = apps[a];
    std::vector<std::string> trow = {app};
    std::vector<std::string> lrow_mean = {
        app, app == "ab" ? "p99 latency" : "mean latency"};
    for (const Point& p : points[a]) {
      const exp::RunResult base = grid.avg(p.base);
      const exp::RunResult irs = grid.avg(p.irs);
      trow.push_back(
          exp::fmt_pct(core::gain_pct(base.throughput, irs.throughput)));
      // The paper reports mean (new-order) latency for SPECjbb and tail
      // (99th percentile) latency for ab.
      const double base_lat =
          static_cast<double>(app == "ab" ? base.lat_p99 : base.lat_mean);
      const double irs_lat =
          static_cast<double>(app == "ab" ? irs.lat_p99 : irs.lat_mean);
      lrow_mean.push_back(
          exp::fmt_pct(core::improvement_pct(base_lat, irs_lat)));
    }
    thr.add_row(std::move(trow));
    lat.add_row(std::move(lrow_mean));
  }
  thr.print(std::cout);
  exp::banner(std::cout, "Figure 8(b): server latency improvement (IRS)");
  lat.print(std::cout);

  // Windowed SLO view of the same runs: whole-run p999, violation count,
  // worst 30ms-window p999, and the peak error-budget burn rate, Baseline
  // vs IRS. This is where interference shows up even when the means are
  // close — a single hog-induced stall blows one window's tail while
  // leaving the run-level average almost untouched.
  exp::banner(std::cout, "Figure 8(c): windowed SLO (30ms windows)");
  exp::Table slo({"workload", "inter", "strategy", "p999", "viol",
                  "worst-win p999", "peak burn"});
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (std::size_t n = 0; n < points[a].size(); ++n) {
      const Point& p = points[a][n];
      for (const bool is_irs : {false, true}) {
        const exp::RunResult r = grid.avg(is_irs ? p.irs : p.base);
        if (r.slo.empty()) continue;
        const obs::SloClassResult& c = r.slo.classes.front();
        sim::Duration worst_p999 = 0;
        double peak_burn = 0;
        for (const obs::SloWindow& win : c.windows) {
          worst_p999 = std::max(worst_p999, win.p999);
          peak_burn = std::max(peak_burn, obs::burn_rate(win, c.spec));
        }
        slo.add_row({apps[a], std::to_string(n + 1),
                     is_irs ? "IRS" : "Baseline",
                     exp::fmt_ms(c.total.percentile(99.9)),
                     std::to_string(c.violations()),
                     exp::fmt_ms(worst_p999), exp::fmt_f(peak_burn, 2)});
      }
    }
  }
  slo.print(std::cout);

  // Does IRS hold the tail when arrivals don't back off? Per (policy,
  // inter, strategy): whole-run p999, the conservation ledger's refusal
  // counts, the deepest the accept queue got, and the mean accept-queue
  // wait of completed requests.
  exp::banner(std::cout,
              "Figure 8(e): open-loop front-end (arrivals do not back off)");
  exp::Table open({"policy", "inter", "strategy", "p999", "completed",
                   "dropped", "shed", "max depth", "mean qwait"});
  for (std::size_t a = 0; a < policies.size(); ++a) {
    for (std::size_t n = 0; n < open_points[a].size(); ++n) {
      const Point& p = open_points[a][n];
      for (const bool is_irs : {false, true}) {
        const exp::RunResult r = grid.avg(is_irs ? p.irs : p.base);
        const obs::FrontendResult& f = r.frontend;
        const sim::Duration p999 =
            r.slo.empty() ? r.lat_p99
                          : r.slo.classes.front().total.percentile(99.9);
        const sim::Duration qwait_mean =
            f.completed > 0 ? f.queue_wait_total /
                                  static_cast<sim::Duration>(f.completed)
                            : 0;
        open.add_row({policies[a], std::to_string(n + 1),
                      is_irs ? "IRS" : "Baseline", exp::fmt_ms(p999),
                      std::to_string(f.completed),
                      std::to_string(f.dropped()), std::to_string(f.shed),
                      std::to_string(f.max_queue_depth),
                      exp::fmt_us(qwait_mean)});
      }
    }
  }
  open.print(std::cout);

  // Why did p999 move? Per-request causal forensics on one fixed-seed run
  // per (workload, strategy) at the heaviest interference level: the
  // per-cause share of total request latency. The specjbb-spin row cranks
  // the critical section to a 300 µs ticket spinlock every transaction —
  // the kernel-spinlock shape where Baseline's violating tail is dominated
  // by lock-holder/waiter preemption and IRS converts that stall time back
  // into plain run/ready-wait (the default blocking-mutex rows show the
  // milder steal/throttle story instead). These are separate single runs
  // (forensics needs the trace ring), not part of the registry grid above.
  exp::banner(std::cout,
              "Figure 8(d): why did p999 move (latency share by cause, "
              "4 hogs, seed 1)");
  std::vector<std::string> fheads = {"workload", "strategy", "spans",
                                     "viol wins", "top cause"};
  for (int i = 0; i < obs::kNumCauses; ++i) {
    fheads.push_back(obs::cause_name(static_cast<obs::Cause>(i)));
  }
  exp::Table why(std::move(fheads));
  std::vector<std::string> fapps(apps.begin(), apps.end());
  fapps.push_back("specjbb-spin");
  for (const auto& app : fapps) {
    const bool spin = app == "specjbb-spin";
    for (const bool is_irs : {false, true}) {
      bench::PanelOptions o;
      exp::ScenarioConfig cfg = bench::make_cfg(
          spin ? "specjbb" : app,
          is_irs ? core::Strategy::kIrs : core::Strategy::kBaseline, 4, o);
      cfg.server_duration = sim::seconds(1);
      cfg.forensics = true;
      if (spin) {
        cfg.jbb_cs_len = sim::microseconds(300);
        cfg.jbb_cs_every = 1;
        cfg.jbb_cs_spin = true;
      }
      const exp::RunResult r = exp::run_scenario(cfg);
      if (r.forensics.empty()) continue;
      const obs::ForensicsClassResult& c = r.forensics.classes.front();
      std::int64_t grand = 0;
      for (int i = 0; i < obs::kNumCauses; ++i) {
        grand += c.cause_total(static_cast<obs::Cause>(i));
      }
      // Dominant cause over the violating windows only — the tail story.
      sim::Duration win_causes[obs::kNumCauses] = {};
      for (const obs::ForensicsWindow& win : c.windows) {
        for (int i = 0; i < obs::kNumCauses; ++i) {
          win_causes[i] += win.causes[i];
        }
      }
      int top = 0;
      for (int i = 1; i < obs::kNumCauses; ++i) {
        if (win_causes[i] > win_causes[top]) top = i;
      }
      std::vector<std::string> row = {
          app, is_irs ? "IRS" : "Baseline", std::to_string(c.spans),
          std::to_string(c.windows.size()),
          c.windows.empty() ? "-"
                            : obs::cause_name(static_cast<obs::Cause>(top))};
      for (int i = 0; i < obs::kNumCauses; ++i) {
        const double share =
            grand > 0
                ? 100.0 *
                      static_cast<double>(
                          c.cause_total(static_cast<obs::Cause>(i))) /
                      static_cast<double>(grand)
                : 0.0;
        row.push_back(exp::fmt_f(share, 1) + "%");
      }
      why.add_row(std::move(row));
    }
  }
  why.print(std::cout);
  return 0;
}
