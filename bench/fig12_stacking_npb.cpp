// Figure 12 — NPB performance under CPU stacking: all vCPUs of both VMs
// unpinned on 4 pCPUs, 4-inter CPU hogs. Utilisation-driven, VM-oblivious
// vCPU placement stacks sibling vCPUs; all three strategies help spinning
// workloads here, IRS most.
#include "bench/bench_util.h"

int main() {
  using namespace irs;
  bench::comparison_tables(
      bench::run_grid("fig12"),
      {.title = [](std::size_t, const exp::ScenarioConfig& c) {
        return "Figure 12: NPB under CPU stacking (" +
               bench::stacking(c) + ")";
      }});
  return 0;
}
