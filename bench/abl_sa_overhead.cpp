// Ablation / validation of the paper's §3.1 overhead claim: SA processing
// adds 20-26 us of preemption delay, negligible against 30 ms slices.
// Also sweeps the hard acknowledgement cap to show the defence against
// rogue guests costs nothing for well-behaved ones.
#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace irs;
  const auto cells = bench::run_grid("abl_sa_overhead");
  // The cap sweep starts at the first cell that sets a non-default cap.
  const auto sweep = std::ranges::find_if(cells, [](const bench::Cell& c) {
    return c.cfg.hv.sa_ack_cap != hv::HvConfig{}.sa_ack_cap;
  });

  exp::banner(std::cout,
              "SA processing delay per application (paper: 20-26us)");
  exp::Table t({"app", "SAs sent", "SAs acked", "avg ack delay",
                "delay / 30ms slice"});
  for (auto it = cells.begin(); it != sweep; ++it) {
    const exp::RunResult& r = it->avg;
    t.add_row({it->cfg.fg, std::to_string(r.sa_sent),
               std::to_string(r.sa_acked), exp::fmt_us(r.sa_delay_avg),
               exp::fmt_f(sim::to_us(r.sa_delay_avg) / 30000.0 * 100.0, 3) +
                   "%"});
  }
  t.print(std::cout);

  exp::banner(std::cout, "SA hard-cap sweep (" + sweep->cfg.fg + ", " +
                             bench::inter(sweep->cfg) + ")");
  exp::Table c({"ack cap", "makespan", "SAs acked", "SAs forced"});
  for (auto it = sweep; it != cells.end(); ++it) {
    const exp::RunResult& r = it->avg;
    c.add_row({std::to_string(it->cfg.hv.sa_ack_cap / sim::microseconds(1)) +
                   "us",
               exp::fmt_ms(r.fg_makespan), std::to_string(r.sa_acked),
               std::to_string(r.sa_sent - r.sa_acked)});
  }
  c.print(std::cout);
  return 0;
}
