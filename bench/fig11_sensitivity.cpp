// Figure 11 — sensitivity to the degree of per-pCPU contention: 4-vCPU
// foreground VM, 1-3 interfering VMs stacked on the same pCPUs, IRS
// improvement over vanilla Xen/Linux. The paper's finding: gains GROW with
// the consolidation degree — IRS matters most in dense packs.
#include "bench/bench_util.h"

int main() {
  using namespace irs;
  bench::comparison_tables(
      bench::run_grid("fig11"),
      {.title =
           [](std::size_t, const exp::ScenarioConfig& c) {
             return "Figure 11: " + c.fg +
                    " — IRS improvement vs #interfering VMs";
           },
       .corner = "",
       .row = bench::inter,
       .column = [](const exp::ScenarioConfig& c) {
         return std::to_string(c.n_bg_vms) +
                (c.n_bg_vms == 1 ? " VM" : " VMs");
       }});
  return 0;
}
