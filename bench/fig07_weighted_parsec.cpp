// Figure 7 — system-wide weighted speedup (fg PARSEC + bg real app),
// percent; 100% = parity with vanilla Xen/Linux. Higher is better.
#include "bench/bench_util.h"

int main() {
  using namespace irs;
  bench::comparison_tables(
      bench::run_grid("fig07"),
      {.title =
           [](std::size_t k, const exp::ScenarioConfig& c) {
             return bench::panel("Figure 7", k) +
                    "weighted speedup, PARSEC w/ " + c.bg + " background";
           },
       .value = bench::weighted});
  return 0;
}
