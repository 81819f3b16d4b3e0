// Figure 13 — PARSEC under CPU stacking (unpinned, 4-inter hogs). For
// blocking workloads, stacking is driven by deceptive idleness: PLE and
// relaxed-co often make things worse; IRS keeps threads off idle vCPUs and
// exposes the VM's real demand.
#include "bench/bench_util.h"

int main() {
  using namespace irs;
  bench::comparison_tables(
      bench::run_grid("fig13"),
      {.title = [](std::size_t, const exp::ScenarioConfig& c) {
        return "Figure 13: PARSEC under CPU stacking (" +
               bench::stacking(c) + ")";
      }});
  return 0;
}
