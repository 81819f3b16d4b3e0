// Figure 10 — scalability: 8-vCPU VMs on 8 pCPUs, IRS improvement as the
// number of interfered vCPUs grows from 1 to 8, for four synchronisation
// styles: x264 (mutex), blackscholes (barrier), EP (blocking), MG
// (spinning), each against three interference types.
#include <cstdlib>
#include <iostream>

#include "bench/bench_util.h"

namespace {

void panel(const std::string& app, bool npb_spinning,
           const std::string& subtitle) {
  using namespace irs;
  exp::banner(std::cout, "Figure 10: " + app + " (" + subtitle + ")");
  const bool fast = std::getenv("IRS_BENCH_FAST") != nullptr;
  const std::vector<std::string> bgs =
      fast ? std::vector<std::string>{"hog"}
           : std::vector<std::string>{"hog", "fluidanimate", "streamcluster"};
  std::vector<std::string> headers = {"interference"};
  const std::vector<int> levels = {1, 2, 4, 6, 8};
  for (const int n : levels) headers.push_back(std::to_string(n) + "-inter");
  exp::Table t(headers);
  const int seeds = exp::bench_seeds();

  // Full bg x level x {baseline, IRS} grid in one sweep.
  bench::SweepGrid grid;
  struct Point {
    std::size_t base;
    std::size_t irs;
  };
  std::vector<std::vector<Point>> points;  // [bg][level]
  for (const auto& bg : bgs) {
    std::vector<Point> row;
    for (const int n : levels) {
      bench::PanelOptions o;
      o.n_vcpus = 8;
      o.n_pcpus = 8;
      o.bg = bg;
      o.npb_spinning = npb_spinning;
      row.push_back(Point{
          grid.add(bench::make_cfg(app, core::Strategy::kBaseline, n, o),
                   seeds),
          grid.add(bench::make_cfg(app, core::Strategy::kIrs, n, o), seeds)});
    }
    points.push_back(std::move(row));
  }
  grid.run();

  for (std::size_t b = 0; b < bgs.size(); ++b) {
    std::vector<std::string> row = {"w/ " + bgs[b]};
    for (const Point& p : points[b]) {
      row.push_back(
          exp::fmt_pct(exp::improvement_pct(grid.avg(p.base), grid.avg(p.irs))));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  panel("x264", true, "pthread mutex");
  panel("blackscholes", true, "pthread barrier");
  panel("EP", false, "blocking OMP barrier");
  panel("MG", true, "spinning OMP barrier");
  return 0;
}
