// Ablations of IRS design choices called out in DESIGN.md:
//  * the Fig. 4 wake-up fix (tagged-task preemption) on/off,
//  * the migrator's target policy (Algorithm 2 idle-first vs. variants),
//  * idle housekeeping (how quickly vacated vCPUs are refilled).
#include <iostream>

#include "bench/bench_util.h"

namespace {

using namespace irs;

exp::ScenarioConfig cfg_with(const std::string& app,
                             const guest::GuestConfig& gc, int n_inter,
                             core::Strategy strategy) {
  bench::PanelOptions o;
  exp::ScenarioConfig cfg = bench::make_cfg(app, strategy, n_inter, o);
  cfg.fg_guest = gc;
  return cfg;
}

}  // namespace

int main() {
  const std::vector<std::string> apps = {"streamcluster", "fluidanimate",
                                         "UA"};
  const int seeds = exp::bench_seeds();

  // All three ablation tables are independent simulations: register every
  // cell up front and run one sweep over the union.
  bench::SweepGrid grid;

  struct WakeupRow {
    std::size_t base, fix_on, fix_off;
  };
  std::vector<WakeupRow> wakeup;
  for (const auto& app : apps) {
    guest::GuestConfig on;
    guest::GuestConfig off;
    off.irs_wakeup_fix = false;
    wakeup.push_back(WakeupRow{
        grid.add(cfg_with(app, on, 1, core::Strategy::kBaseline), seeds),
        grid.add(cfg_with(app, on, 1, core::Strategy::kIrs), seeds),
        grid.add(cfg_with(app, off, 1, core::Strategy::kIrs), seeds)});
  }

  const std::vector<guest::MigratorPolicy> policies = {
      guest::MigratorPolicy::kIdleThenLeastLoaded,
      guest::MigratorPolicy::kLeastLoadedOnly,
      guest::MigratorPolicy::kFirstRunning};
  struct PolicyRow {
    std::size_t base;
    std::vector<std::size_t> per_policy;
  };
  std::vector<PolicyRow> policy_rows;
  for (const auto& app : apps) {
    guest::GuestConfig gc;
    PolicyRow row;
    row.base = grid.add(cfg_with(app, gc, 1, core::Strategy::kBaseline), seeds);
    for (const auto pol : policies) {
      gc.migrator_policy = pol;
      row.per_policy.push_back(
          grid.add(cfg_with(app, gc, 1, core::Strategy::kIrs), seeds));
    }
    policy_rows.push_back(std::move(row));
  }

  const std::vector<long> idle_ms = {4L, 10L, 30L, 0L};
  struct IdleRow {
    std::size_t base;
    std::vector<std::size_t> per_period;
  };
  std::vector<IdleRow> idle_rows;
  for (const auto& app : apps) {
    guest::GuestConfig gc;
    IdleRow row;
    row.base = grid.add(cfg_with(app, gc, 1, core::Strategy::kBaseline), seeds);
    for (const long ms : idle_ms) {
      gc.idle_poll_period = sim::milliseconds(ms);
      row.per_period.push_back(
          grid.add(cfg_with(app, gc, 1, core::Strategy::kIrs), seeds));
    }
    idle_rows.push_back(std::move(row));
  }

  grid.run();

  exp::banner(std::cout, "Ablation: IRS wake-up fix (Fig. 4) on/off");
  exp::Table wf({"app", "baseline", "IRS (fix on)", "IRS (fix off)"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto base = grid.avg(wakeup[i].base);
    wf.add_row(
        {apps[i], exp::fmt_ms(base.fg_makespan),
         exp::fmt_pct(exp::improvement_pct(base, grid.avg(wakeup[i].fix_on))),
         exp::fmt_pct(
             exp::improvement_pct(base, grid.avg(wakeup[i].fix_off)))});
  }
  wf.print(std::cout);

  exp::banner(std::cout, "Ablation: migrator target policy (Algorithm 2)");
  exp::Table mp({"app", "idle-then-least (paper)", "least-loaded only",
                 "first-running"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto base = grid.avg(policy_rows[i].base);
    std::vector<std::string> row = {apps[i]};
    for (const std::size_t cell : policy_rows[i].per_policy) {
      row.push_back(exp::fmt_pct(exp::improvement_pct(base, grid.avg(cell))));
    }
    mp.add_row(std::move(row));
  }
  mp.print(std::cout);

  exp::banner(std::cout, "Ablation: idle housekeeping period");
  exp::Table ip({"app", "4ms", "10ms (default)", "30ms", "off"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto base = grid.avg(idle_rows[i].base);
    std::vector<std::string> row = {apps[i]};
    for (const std::size_t cell : idle_rows[i].per_period) {
      row.push_back(exp::fmt_pct(exp::improvement_pct(base, grid.avg(cell))));
    }
    ip.add_row(std::move(row));
  }
  ip.print(std::cout);
  return 0;
}
