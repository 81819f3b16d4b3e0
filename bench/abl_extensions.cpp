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
#include "bench/bench_util.h"

int main() {
  using namespace irs;
  bench::comparison_tables(
      bench::run_grid("abl_extensions"),
      {.title =
           [](std::size_t k, const exp::ScenarioConfig& c) {
             return k == 0 ? "Extensions: improvement over vanilla "
                             "Xen/Linux (" + bench::inter(c) + ")"
                           : "Extensions at " + bench::inter(c) +
                                 " (everything contended)";
           },
       .column = [](const exp::ScenarioConfig& c) -> std::string {
         return core::strategy_name(c.strategy);
       }});
  return 0;
}
