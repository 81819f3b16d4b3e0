// Extension strategies beyond the paper's evaluation:
//  * Delay-Preempt — the Uhlig-style lock-holder preemption-avoidance
//    baseline the paper discusses in §2.2 (guest hints, hypervisor defers
//    preemption of lock holders up to a hard cap);
//  * IRS-Pull — the paper's §6 future-work proposal: purely pull-based
//    rescue of "running" tasks from preempted vCPUs when a guest CPU
//    idles, with no scheduler activations at all.
//
// Expected shape: IRS-Pull tracks IRS for blocking workloads (idle CPUs
// exist to do the pulling) but does nothing for spinning ones (no CPU ever
// idles); Delay-Preempt only addresses LHP for lock-heavy apps and caps
// out quickly because fairness bounds the delay window.
#include <iostream>

#include "bench/bench_util.h"

namespace {

using namespace irs;

const std::vector<core::Strategy> kExtensions = {
    core::Strategy::kDelayPreempt, core::Strategy::kIrs,
    core::Strategy::kIrsPull};

struct Row {
  std::string app;
  std::size_t base;
  std::vector<std::size_t> per_strategy;
};

std::vector<Row> register_panel(bench::SweepGrid& grid,
                                const std::vector<std::string>& apps,
                                int n_inter, int seeds) {
  std::vector<Row> rows;
  for (const auto& app : apps) {
    bench::PanelOptions o;
    // Longer runs give the delay-preemption window enough preemption-in-CS
    // coincidences to matter.
    o.work_scale = 1.0;
    Row row;
    row.app = app;
    row.base = grid.add(
        bench::make_cfg(app, core::Strategy::kBaseline, n_inter, o), seeds);
    for (const auto s : kExtensions) {
      row.per_strategy.push_back(
          grid.add(bench::make_cfg(app, s, n_inter, o), seeds));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_panel(const bench::SweepGrid& grid, const std::vector<Row>& rows,
                 const std::vector<std::string>& headers) {
  exp::Table t(headers);
  for (const Row& r : rows) {
    std::vector<std::string> cells = {r.app};
    const exp::RunResult base = grid.avg(r.base);
    for (const std::size_t cell : r.per_strategy) {
      cells.push_back(exp::fmt_pct(exp::improvement_pct(base, grid.avg(cell))));
    }
    t.add_row(std::move(cells));
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  using namespace irs;
  const int seeds = exp::bench_seeds();
  const std::vector<std::string> headers = {"app", "Delay-Preempt", "IRS",
                                            "IRS-Pull"};

  // Both panels share one sweep: register everything, run once, format.
  bench::SweepGrid grid;
  const auto panel1 = register_panel(
      grid,
      {"x264", "fluidanimate", "streamcluster", "blackscholes", "UA", "MG",
       "EP", "raytrace"},
      1, seeds);
  const auto panel4 =
      register_panel(grid, {"x264", "streamcluster", "UA"}, 4, seeds);
  grid.run();

  exp::banner(std::cout,
              "Extensions: improvement over vanilla Xen/Linux (1-inter)");
  print_panel(grid, panel1, headers);

  exp::banner(std::cout, "Extensions at 4-inter (everything contended)");
  print_panel(grid, panel4, headers);
  return 0;
}
