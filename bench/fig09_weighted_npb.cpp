// Figure 9 — system-wide weighted speedup for NPB (spinning) with real
// application interference (LU and UA backgrounds).
#include "bench/bench_util.h"

int main() {
  using namespace irs;
  bench::comparison_tables(
      bench::run_grid("fig09"),
      {.title =
           [](std::size_t k, const exp::ScenarioConfig& c) {
             return bench::panel("Figure 9", k) + "weighted speedup, NPB w/ " +
                    c.bg + " background";
           },
       .value = bench::weighted});
  return 0;
}
