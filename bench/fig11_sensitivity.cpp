// Figure 11 — sensitivity to the degree of per-pCPU contention: 4-vCPU
// foreground VM, 1-3 interfering VMs stacked on the same pCPUs, IRS
// improvement over vanilla Xen/Linux. The paper's finding: gains GROW with
// the consolidation degree — IRS matters most in dense packs.
#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace irs;
  const int seeds = exp::bench_seeds();
  for (const char* app : {"x264", "blackscholes", "EP", "MG"}) {
    const bool npb_spin = app == std::string("MG");
    exp::banner(std::cout, std::string("Figure 11: ") + app +
                               " — IRS improvement vs #interfering VMs");
    exp::Table t({"", "1 VM", "2 VMs", "3 VMs"});

    bench::SweepGrid grid;
    struct Point {
      std::size_t base;
      std::size_t irs;
    };
    std::vector<std::vector<Point>> points;  // [n_inter][vms-1]
    for (const int n_inter : {1, 2, 4}) {
      std::vector<Point> prow;
      for (int vms = 1; vms <= 3; ++vms) {
        bench::PanelOptions o;
        o.bg = "hog";
        o.n_bg_vms = vms;
        o.npb_spinning = npb_spin || app != std::string("EP");
        prow.push_back(Point{
            grid.add(
                bench::make_cfg(app, core::Strategy::kBaseline, n_inter, o),
                seeds),
            grid.add(bench::make_cfg(app, core::Strategy::kIrs, n_inter, o),
                     seeds)});
      }
      points.push_back(std::move(prow));
    }
    grid.run();

    const int inter_levels[] = {1, 2, 4};
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::vector<std::string> row = {std::to_string(inter_levels[i]) +
                                      "-inter"};
      for (const Point& p : points[i]) {
        row.push_back(exp::fmt_pct(
            exp::improvement_pct(grid.avg(p.base), grid.avg(p.irs))));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
  return 0;
}
