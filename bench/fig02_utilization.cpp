// Figure 2 — CPU utilisation relative to fair share under interference.
// Blocking-sync PARSEC and NPB (OMP_WAIT_POLICY=passive) apps fall well
// short of their fair share; raytrace's user-level load balancing keeps it
// near 1.0.
#include <iostream>

#include "bench/bench_util.h"
#include "src/wl/npb.h"
#include "src/wl/parsec.h"

int main() {
  using namespace irs;
  exp::banner(std::cout,
              "Figure 2: CPU utilisation relative to fair share "
              "(1-inter, blocking sync)");
  exp::Table t({"app", "suite", "util/fair", "useful/fair"});
  const int seeds = exp::bench_seeds();

  bench::SweepGrid grid;
  struct Entry {
    std::string app;
    const char* suite;
    std::size_t cell;
  };
  std::vector<Entry> entries;
  auto add_one = [&](const std::string& app, const char* suite,
                     bool npb_spinning) {
    bench::PanelOptions o;
    o.npb_spinning = npb_spinning;
    entries.push_back(
        {app, suite,
         grid.add(bench::make_cfg(app, core::Strategy::kBaseline, 1, o),
                  seeds)});
  };

  for (const char* app :
       {"streamcluster", "canneal", "fluidanimate", "bodytrack", "x264",
        "facesim", "blackscholes"}) {
    add_one(app, "PARSEC", false);
  }
  // Paper Fig. 2 runs NPB with the passive (blocking) wait policy.
  for (const char* app : {"BT", "CG", "MG", "FT", "SP", "UA"}) {
    add_one(app, "NPB", false);
  }
  add_one("raytrace", "PARSEC (work-steal)", false);

  grid.run();
  for (const Entry& e : entries) {
    const exp::RunResult r = grid.avg(e.cell);
    t.add_row({e.app, e.suite, exp::fmt_f(r.fg_util_vs_fair, 2),
               exp::fmt_f(r.fg_efficiency, 2)});
  }
  t.print(std::cout);
  return 0;
}
