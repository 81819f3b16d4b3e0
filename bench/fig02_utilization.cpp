// Figure 2 — CPU utilisation relative to fair share under interference.
// Blocking-sync PARSEC and NPB (OMP_WAIT_POLICY=passive) apps fall well
// short of their fair share; raytrace's user-level load balancing keeps it
// near 1.0.
#include <algorithm>

#include "bench/bench_util.h"
#include "src/wl/npb.h"
#include "src/wl/parsec.h"

int main() {
  using namespace irs;
  const auto cells = bench::run_grid("fig02");
  const auto npb = wl::npb_names();
  auto suite = [&](const std::string& app) -> std::string {
    if (std::ranges::find(npb, app) != npb.end()) return "NPB";
    return wl::parsec_spec(app).sync == wl::SyncType::kWorkSteal
               ? "PARSEC (work-steal)"
               : "PARSEC";
  };
  exp::banner(std::cout, "Figure 2: CPU utilisation relative to fair share (" +
                             bench::inter(cells.front().cfg) +
                             ", blocking sync)");
  exp::Table t({"app", "suite", "util/fair", "useful/fair"});
  for (const bench::Cell& c : cells) {
    t.add_row({c.cfg.fg, suite(c.cfg.fg), exp::fmt_f(c.avg.fg_util_vs_fair, 2),
               exp::fmt_f(c.avg.fg_efficiency, 2)});
  }
  t.print(std::cout);
  return 0;
}
