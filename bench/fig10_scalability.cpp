// Figure 10 — scalability: 8-vCPU VMs on 8 pCPUs, IRS improvement as the
// number of interfered vCPUs grows from 1 to 8, for four synchronisation
// styles: x264 (mutex), blackscholes (barrier), EP (blocking), MG
// (spinning), each against three interference types.
#include <map>

#include "bench/bench_util.h"

int main() {
  using namespace irs;
  const std::map<std::string, std::string> sync_style = {
      {"x264", "pthread mutex"},
      {"blackscholes", "pthread barrier"},
      {"EP", "blocking OMP barrier"},
      {"MG", "spinning OMP barrier"}};
  bench::comparison_tables(
      bench::run_grid("fig10"),
      {.title =
           [&](std::size_t, const exp::ScenarioConfig& c) {
             return "Figure 10: " + c.fg + " (" + sync_style.at(c.fg) + ")";
           },
       .corner = "interference",
       .row = [](const exp::ScenarioConfig& c) { return "w/ " + c.bg; },
       .column = bench::inter});
  return 0;
}
