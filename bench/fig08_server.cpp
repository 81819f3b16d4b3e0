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
  const auto cells = bench::run_grid("fig08");
  const auto open_cells = bench::run_grid("fig08_open");

  bench::comparison_tables(
      cells,
      {.title = [](std::size_t, const exp::ScenarioConfig&) {
         return "Figure 8(a): server throughput improvement (IRS)";
       },
       .corner = "workload",
       .column = bench::inter,
       .value = [](const exp::RunResult& base, const exp::RunResult& irs) {
         return exp::fmt_pct(core::gain_pct(base.throughput, irs.throughput));
       }});

  // The paper reports mean (new-order) latency for SPECjbb and tail (99th
  // percentile) latency for ab.
  exp::banner(std::cout, "Figure 8(b): server latency improvement (IRS)");
  const auto groups = bench::baseline_groups(cells);
  const auto rows = bench::runs_by(
      groups, [](const bench::Group& g) { return g.base.cfg.fg; });
  std::vector<std::string> lat_headers = {"workload", "metric"};
  for (const bench::Group& g : rows.front()) {
    lat_headers.push_back(bench::inter(g.base.cfg));
  }
  exp::Table lat(std::move(lat_headers));
  for (const auto row : rows) {
    const std::string& app = row.front().base.cfg.fg;
    const bool p99 = app == "ab";
    std::vector<std::string> line = {app, p99 ? "p99 latency" : "mean latency"};
    for (const bench::Group& g : row) {
      const exp::RunResult& base = g.base.avg;
      const exp::RunResult& irs = g.arms.front().avg;
      line.push_back(exp::fmt_pct(core::improvement_pct(
          static_cast<double>(p99 ? base.lat_p99 : base.lat_mean),
          static_cast<double>(p99 ? irs.lat_p99 : irs.lat_mean))));
    }
    lat.add_row(std::move(line));
  }
  lat.print(std::cout);

  // Windowed SLO view of the same runs: whole-run p999, violation count,
  // worst 30ms-window p999, and the peak error-budget burn rate, Baseline
  // vs IRS. This is where interference shows up even when the means are
  // close — a single hog-induced stall blows one window's tail while
  // leaving the run-level average almost untouched.
  exp::banner(std::cout, "Figure 8(c): windowed SLO (30ms windows)");
  exp::Table slo({"workload", "inter", "strategy", "p999", "viol",
                  "worst-win p999", "peak burn"});
  for (const bench::Cell& cell : cells) {
    const exp::RunResult& r = cell.avg;
    if (r.slo.empty()) continue;
    const obs::SloClassResult& c = r.slo.classes.front();
    sim::Duration worst_p999 = 0;
    double peak_burn = 0;
    for (const obs::SloWindow& win : c.windows) {
      worst_p999 = std::max(worst_p999, win.p999);
      peak_burn = std::max(peak_burn, obs::burn_rate(win, c.spec));
    }
    slo.add_row({cell.cfg.fg, std::to_string(cell.cfg.n_inter),
                 bench::arm_name(cell.cfg),
                 exp::fmt_ms(c.total.percentile(99.9)),
                 std::to_string(c.violations()), exp::fmt_ms(worst_p999),
                 exp::fmt_f(peak_burn, 2)});
  }
  slo.print(std::cout);

  // Does IRS hold the tail when arrivals don't back off? The open-loop
  // "frontend" workload's arrivals keep coming during hog-induced freezes,
  // so interference surfaces as queue growth, drops/sheds and p999 blowups
  // the jbb/ab panels cannot show. Per (overload policy, inter, strategy):
  // whole-run p999, the conservation ledger's refusal counts, the deepest
  // the accept queue got, and the mean accept-queue wait of completed
  // requests.
  exp::banner(std::cout,
              "Figure 8(e): open-loop front-end (arrivals do not back off)");
  exp::Table open({"policy", "inter", "strategy", "p999", "completed",
                   "dropped", "shed", "max depth", "mean qwait"});
  for (const bench::Cell& cell : open_cells) {
    const exp::RunResult& r = cell.avg;
    const obs::FrontendResult& f = r.frontend;
    const sim::Duration p999 =
        r.slo.empty() ? r.lat_p99
                      : r.slo.classes.front().total.percentile(99.9);
    const sim::Duration qwait_mean =
        f.completed > 0
            ? f.queue_wait_total / static_cast<sim::Duration>(f.completed)
            : 0;
    open.add_row({cell.cfg.fe_overload, std::to_string(cell.cfg.n_inter),
                  bench::arm_name(cell.cfg), exp::fmt_ms(p999),
                  std::to_string(f.completed), std::to_string(f.dropped()),
                  std::to_string(f.shed), std::to_string(f.max_queue_depth),
                  exp::fmt_us(qwait_mean)});
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
  for (const std::string app : {"specjbb", "ab", "specjbb-spin"}) {
    const bool spin = app == "specjbb-spin";
    for (const auto s : {core::Strategy::kBaseline, core::Strategy::kIrs}) {
      exp::ScenarioConfig cfg = exp::panel_cfg(spin ? "specjbb" : app, s, 4,
                                               exp::PanelOptions{});
      cfg.server_duration = sim::seconds(1);
      cfg.forensics = true;
      cfg.jbb_cs_spin = spin;
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
          app, bench::arm_name(cfg), std::to_string(c.spans),
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
