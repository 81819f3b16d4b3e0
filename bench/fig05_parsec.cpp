// Figure 5 — PARSEC performance improvement (blocking synchronisation)
// under PLE / Relaxed-Co / IRS, relative to vanilla Xen/Linux, with three
// interference types: (a) CPU-hog micro-benchmark, (b) streamcluster,
// (c) fluidanimate.
#include "bench/bench_util.h"

int main() {
  using namespace irs;
  bench::comparison_tables(
      bench::run_grid("fig05"),
      {.title = [](std::size_t k, const exp::ScenarioConfig& c) {
        return bench::panel("Figure 5", k) + "PARSEC improvement w/ " +
               (c.bg == "hog" ? "micro-benchmark" : c.bg) + " interference";
      }});
  return 0;
}
