// Ablations of IRS design choices called out in DESIGN.md:
//  * the Fig. 4 wake-up fix (tagged-task preemption) on/off,
//  * the migrator's target policy (Algorithm 2 idle-first vs. variants),
//  * idle housekeeping (how quickly vacated vCPUs are refilled).
#include <iostream>

#include "bench/bench_util.h"

namespace {

using namespace irs;

/// The guest knob an ablation group varies across its IRS arms.
enum class Knob { kWakeupFix, kMigrator, kIdlePoll };

Knob knob(const bench::Group& g) {
  const guest::GuestConfig& a = g.arms.front().cfg.fg_guest;
  const guest::GuestConfig& b = g.arms.back().cfg.fg_guest;
  if (a.irs_wakeup_fix != b.irs_wakeup_fix) return Knob::kWakeupFix;
  if (a.migrator_policy != b.migrator_policy) return Knob::kMigrator;
  return Knob::kIdlePoll;
}

const char* title(Knob k) {
  switch (k) {
    case Knob::kWakeupFix:
      return "Ablation: IRS wake-up fix (Fig. 4) on/off";
    case Knob::kMigrator:
      return "Ablation: migrator target policy (Algorithm 2)";
    case Knob::kIdlePoll:
      return "Ablation: idle housekeeping period";
  }
  return "?";
}

/// Column header of an IRS arm: its value of knob `k`.
std::string label(Knob k, const guest::GuestConfig& gc) {
  switch (k) {
    case Knob::kWakeupFix:
      return gc.irs_wakeup_fix ? "IRS (fix on)" : "IRS (fix off)";
    case Knob::kMigrator:
      switch (gc.migrator_policy) {
        case guest::MigratorPolicy::kIdleThenLeastLoaded:
          return "idle-then-least (paper)";
        case guest::MigratorPolicy::kLeastLoadedOnly:
          return "least-loaded only";
        case guest::MigratorPolicy::kFirstRunning:
          return "first-running";
      }
      return "?";
    case Knob::kIdlePoll:
      if (gc.idle_poll_period == 0) return "off";
      return std::to_string(gc.idle_poll_period / sim::milliseconds(1)) +
             "ms" +
             (gc.idle_poll_period == guest::GuestConfig{}.idle_poll_period
                  ? " (default)"
                  : "");
  }
  return "?";
}

}  // namespace

int main() {
  const auto cells = bench::run_grid("abl_design");
  const auto groups = bench::baseline_groups(cells);
  for (const auto table : bench::runs_by(groups, knob)) {
    const Knob k = knob(table.front());
    // The wake-up table also shows the baseline makespan it compares with.
    const bool base_column = k == Knob::kWakeupFix;
    exp::banner(std::cout, title(k));
    std::vector<std::string> headers = {"app"};
    if (base_column) headers.push_back("baseline");
    for (const bench::Cell& a : table.front().arms) {
      headers.push_back(label(k, a.cfg.fg_guest));
    }
    exp::Table t(std::move(headers));
    for (const bench::Group& g : table) {
      std::vector<std::string> row = {g.base.cfg.fg};
      if (base_column) row.push_back(exp::fmt_ms(g.base.avg.fg_makespan));
      for (const bench::Cell& a : g.arms) {
        row.push_back(bench::improvement(g.base.avg, a.avg));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
  return 0;
}
