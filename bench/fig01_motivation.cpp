// Figure 1 — motivation.
// (a) Slowdown of parallel programs when one of four vCPUs is interfered:
//     blocking (fluidanimate) and spinning (UA) suffer; work-stealing
//     (raytrace) is resilient.
// (b) Stop-based process-migration latency from a contended vCPU grows by
//     roughly one scheduling slice per co-located CPU-bound VM
//     (paper: 1 ms / 26.4 ms / 53.2 ms / 79.8 ms).
#include <iostream>

#include "bench/bench_util.h"
#include "src/exp/scenarios.h"

int main() {
  using namespace irs;

  const int seeds = bench::checked_seeds();
  exp::banner(std::cout, "Figure 1(a): slowdown under 1-vCPU interference");
  exp::Table a({"app", "sync style", "slowdown vs alone"});
  struct Row {
    const char* app;
    const char* style;
  };
  const std::vector<Row> rows = {Row{"fluidanimate", "blocking"},
                                 Row{"UA", "spinning"},
                                 Row{"raytrace", "user-level work stealing"}};

  // Every (app, seed) experiment is independent: flatten the grid and let
  // the sweep pool run it; results land in fixed slots so the averages are
  // identical to the serial loop's.
  std::vector<double> slowdowns(rows.size() *
                                static_cast<std::size_t>(seeds));
  exp::parallel_for(slowdowns.size(), [&](std::size_t i) {
    const std::size_t app_i = i / static_cast<std::size_t>(seeds);
    const std::size_t s = i % static_cast<std::size_t>(seeds);
    slowdowns[i] = exp::fig1a_slowdown(rows[app_i].app,
                                       33 + 7 * static_cast<unsigned>(s));
  });
  for (std::size_t app_i = 0; app_i < rows.size(); ++app_i) {
    double slow = 0;
    for (int s = 0; s < seeds; ++s) {
      slow += slowdowns[app_i * static_cast<std::size_t>(seeds) +
                        static_cast<std::size_t>(s)];
    }
    a.add_row({rows[app_i].app, rows[app_i].style,
               exp::fmt_f(slow / seeds, 2) + "x"});
  }
  a.print(std::cout);

  exp::banner(std::cout,
              "Figure 1(b): process-migration latency vs co-located VMs");
  exp::Table b({"co-located VMs", "mean latency", "max latency"});
  const char* labels[] = {"alone", "1 VM", "2 VMs", "3 VMs"};
  std::vector<exp::MigrationLatencyResult> lat(4);
  exp::parallel_for(lat.size(), [&](std::size_t n) {
    lat[n] = exp::fig1b_migration_latency(static_cast<int>(n), 30, 11);
  });
  for (int n = 0; n <= 3; ++n) {
    const auto& r = lat[static_cast<std::size_t>(n)];
    b.add_row({labels[n], exp::fmt_f(r.mean_ms, 1) + "ms",
               exp::fmt_f(r.max_ms, 1) + "ms"});
  }
  b.print(std::cout);
  return 0;
}
