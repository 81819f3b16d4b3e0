// Cluster figure — the two-host virtual datacenter. A protected "ab"
// server fixed on host 0 and 1..4 migratable two-vCPU hog VMs, admitted by
// each placement policy (random / first-fit / IRS-informed). The IRS
// policy additionally live-migrates the noisiest co-tenant off host 0 when
// the protected VM burns steal budget, so its tail should sit below the
// placement-only baselines once interference crowds host 0 (>= 2 hogs).
// Cells mirror exp::figure_grid("fig_cluster") so `irs_sweep --fig
// fig_cluster` runs the same grid.
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

int main() {
  using namespace irs;
  const int seeds = exp::bench_seeds();

  exp::banner(std::cout,
              "Cluster: fg p999 and migration activity by placement policy "
              "(2 hosts, ab + N hog VMs)");
  exp::banner(std::cerr, "(running...)");

  bench::SweepGrid grid;
  struct Point {
    std::size_t base;
    std::size_t irs;
  };
  const std::vector<std::string> policies = {"random", "firstfit", "irs"};
  std::vector<std::vector<Point>> points;  // [policy][hogs-1]
  for (const auto& pol : policies) {
    std::vector<Point> row;
    for (int n = 1; n <= 4; ++n) {
      Point p{};
      for (const bool is_irs : {false, true}) {
        bench::PanelOptions o;
        exp::ScenarioConfig cfg = bench::make_cfg(
            "ab", is_irs ? core::Strategy::kIrs : core::Strategy::kBaseline,
            2, o);
        cfg.server_duration = sim::seconds(2);
        cfg.n_bg_vms = n;
        cfg.cluster.n_hosts = 2;
        cfg.cluster.policy = pol;
        (is_irs ? p.irs : p.base) = grid.add(cfg, seeds);
      }
      row.push_back(p);
    }
    points.push_back(std::move(row));
  }
  grid.run();

  exp::Table t({"policy", "hogs", "strategy", "p999", "thr", "migr",
                "decisions", "downtime", "steal(host0)"});
  for (std::size_t a = 0; a < policies.size(); ++a) {
    for (std::size_t n = 0; n < points[a].size(); ++n) {
      const Point& p = points[a][n];
      for (const bool is_irs : {false, true}) {
        const exp::RunResult r = grid.avg(is_irs ? p.irs : p.base);
        const obs::ClusterResult& c = r.cluster;
        const sim::Duration steal0 =
            c.hosts.empty() ? 0 : c.hosts.front().steal;
        t.add_row({policies[a], std::to_string(n + 1),
                   is_irs ? "IRS" : "Baseline", exp::fmt_ms(r.lat_p999),
                   exp::fmt_f(r.throughput, 0),
                   std::to_string(c.migrations),
                   std::to_string(c.decisions), exp::fmt_ms(c.downtime_total),
                   exp::fmt_ms(steal0)});
      }
    }
  }
  t.print(std::cout);

  // Head-to-head: per hog count, the IRS placement policy's p999 vs the
  // placement-only baselines (per-host scheduling fixed at Baseline so the
  // delta is the cluster scheduler's alone).
  exp::banner(std::cout, "Cluster: p999 by policy (per-host Baseline)");
  exp::Table h2h({"hogs", "random", "firstfit", "irs", "irs vs random"});
  for (std::size_t n = 0; n < points[0].size(); ++n) {
    const double rnd =
        static_cast<double>(grid.avg(points[0][n].base).lat_p999);
    const double ff =
        static_cast<double>(grid.avg(points[1][n].base).lat_p999);
    const double irs =
        static_cast<double>(grid.avg(points[2][n].base).lat_p999);
    h2h.add_row({std::to_string(n + 1),
                 exp::fmt_ms(static_cast<sim::Duration>(rnd)),
                 exp::fmt_ms(static_cast<sim::Duration>(ff)),
                 exp::fmt_ms(static_cast<sim::Duration>(irs)),
                 exp::fmt_pct(core::improvement_pct(rnd, irs))});
  }
  h2h.print(std::cout);
  return 0;
}
