// Ablation / validation of the paper's §3.1 overhead claim: SA processing
// adds 20-26 us of preemption delay, negligible against 30 ms slices.
// Also sweeps the hard acknowledgement cap to show the defence against
// rogue guests costs nothing for well-behaved ones.
#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace irs;
  const int seeds = exp::bench_seeds();

  // Both tables are one combined sweep.
  bench::SweepGrid grid;
  const std::vector<std::string> apps = {"streamcluster", "fluidanimate",
                                         "x264", "UA", "MG", "specjbb"};
  std::vector<std::size_t> delay_cells;
  for (const auto& app : apps) {
    bench::PanelOptions o;
    delay_cells.push_back(
        grid.add(bench::make_cfg(app, core::Strategy::kIrs, 1, o), seeds));
  }

  const std::vector<long> caps_us = {15L, 30L, 100L, 1000L};
  std::vector<std::size_t> cap_cells;
  for (const long cap_us : caps_us) {
    bench::PanelOptions o;
    exp::ScenarioConfig cfg =
        bench::make_cfg("streamcluster", core::Strategy::kIrs, 1, o);
    cfg.hv.sa_ack_cap = sim::microseconds(cap_us);
    cap_cells.push_back(grid.add(cfg, seeds));
  }
  grid.run();

  exp::banner(std::cout,
              "SA processing delay per application (paper: 20-26us)");
  exp::Table t({"app", "SAs sent", "SAs acked", "avg ack delay",
                "delay / 30ms slice"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const exp::RunResult r = grid.avg(delay_cells[i]);
    t.add_row({apps[i], std::to_string(r.sa_sent),
               std::to_string(r.sa_acked), exp::fmt_us(r.sa_delay_avg),
               exp::fmt_f(sim::to_us(r.sa_delay_avg) / 30000.0 * 100.0, 3) +
                   "%"});
  }
  t.print(std::cout);

  exp::banner(std::cout, "SA hard-cap sweep (streamcluster, 1-inter)");
  exp::Table c({"ack cap", "makespan", "SAs acked", "SAs forced"});
  for (std::size_t i = 0; i < caps_us.size(); ++i) {
    const exp::RunResult r = grid.avg(cap_cells[i]);
    c.add_row({std::to_string(caps_us[i]) + "us",
               exp::fmt_ms(r.fg_makespan), std::to_string(r.sa_acked),
               std::to_string(r.sa_sent - r.sa_acked)});
  }
  c.print(std::cout);
  return 0;
}
