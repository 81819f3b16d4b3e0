// Figure 6 — NPB performance improvement (spinning synchronisation,
// OMP_WAIT_POLICY=active) under PLE / Relaxed-Co / IRS with (a) CPU hogs,
// (b) UA, (c) LU as interference.
#include "bench/bench_util.h"

int main() {
  using namespace irs;
  bench::comparison_tables(
      bench::run_grid("fig06"),
      {.title = [](std::size_t k, const exp::ScenarioConfig& c) {
        return bench::panel("Figure 6", k) + "NPB improvement w/ " +
               (c.bg == "hog" ? "micro-benchmark" : c.bg) + " interference";
      }});
  return 0;
}
