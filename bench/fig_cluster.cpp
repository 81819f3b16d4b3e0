// Cluster figure — the two-host virtual datacenter. A protected "ab"
// server fixed on host 0 and 1..4 migratable two-vCPU hog VMs, admitted by
// each placement policy (random / first-fit / IRS-informed). The IRS
// policy additionally live-migrates the noisiest co-tenant off host 0 when
// the protected VM burns steal budget, so its tail should sit below the
// placement-only baselines once interference crowds host 0 (>= 2 hogs).
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

int main() {
  using namespace irs;
  const auto cells = bench::run_grid("fig_cluster");
  const exp::ScenarioConfig& shape = cells.front().cfg;

  exp::banner(std::cout,
              "Cluster: fg p999 and migration activity by placement policy (" +
                  std::to_string(shape.cluster.n_hosts) + " hosts, " +
                  shape.fg + " + N " + shape.bg + " VMs)");
  exp::Table t({"policy", "hogs", "strategy", "p999", "thr", "migr",
                "decisions", "downtime", "steal(host0)"});
  for (const bench::Cell& cell : cells) {
    const exp::RunResult& r = cell.avg;
    const obs::ClusterResult& c = r.cluster;
    const sim::Duration steal0 = c.hosts.empty() ? 0 : c.hosts.front().steal;
    t.add_row({cell.cfg.cluster.policy, std::to_string(cell.cfg.n_bg_vms),
               bench::arm_name(cell.cfg), exp::fmt_ms(r.lat_p999),
               exp::fmt_f(r.throughput, 0), std::to_string(c.migrations),
               std::to_string(c.decisions), exp::fmt_ms(c.downtime_total),
               exp::fmt_ms(steal0)});
  }
  t.print(std::cout);

  // Head-to-head: per hog count, the IRS placement policy's p999 vs the
  // placement-only baselines (per-host scheduling fixed at Baseline so the
  // delta is the cluster scheduler's alone).
  exp::banner(std::cout, "Cluster: p999 by policy (per-host Baseline)");
  const auto groups = bench::baseline_groups(cells);
  const auto policies = bench::runs_by(
      groups, [](const bench::Group& g) { return g.base.cfg.cluster.policy; });
  const std::string& first = policies.front().front().base.cfg.cluster.policy;
  const std::string& last = policies.back().front().base.cfg.cluster.policy;
  std::vector<std::string> headers = {"hogs"};
  for (const auto pol : policies) {
    headers.push_back(pol.front().base.cfg.cluster.policy);
  }
  headers.push_back(last + " vs " + first);
  exp::Table h2h(std::move(headers));
  for (std::size_t n = 0; n < policies.front().size(); ++n) {
    std::vector<std::string> line = {
        std::to_string(policies.front()[n].base.cfg.n_bg_vms)};
    for (const auto pol : policies) {
      line.push_back(exp::fmt_ms(pol[n].base.avg.lat_p999));
    }
    line.push_back(exp::fmt_pct(core::improvement_pct(
        static_cast<double>(policies.front()[n].base.avg.lat_p999),
        static_cast<double>(policies.back()[n].base.avg.lat_p999))));
    h2h.add_row(std::move(line));
  }
  h2h.print(std::cout);
  return 0;
}
