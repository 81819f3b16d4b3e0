// Shared sweep/printing helpers for the per-figure benchmark binaries.
//
// Every binary regenerates the rows/series of one paper figure. Absolute
// numbers are simulation-specific; the shapes (who wins, by roughly what
// factor, where crossovers fall) are what EXPERIMENTS.md compares.
//
// All figure sweeps are grids of independent simulations, so each panel
// registers its full grid on a SweepGrid and executes it in one run_sweep
// call — IRS_BENCH_JOBS workers (default: hardware concurrency), results
// bit-identical to a serial sweep.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/grids.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/exp/sweep.h"

namespace irs::bench {

/// Panel knobs and cell construction live in src/exp/grids.h now, shared
/// with the named-grid registry so `irs_sweep --fig figNN` and the bench
/// binaries cannot drift apart. These aliases keep the bench code reading
/// as before.
using exp::kPanelWorkScale;
using exp::PanelOptions;
inline constexpr double kWorkScale = exp::kPanelWorkScale;

inline exp::ScenarioConfig make_cfg(const std::string& app,
                                    core::Strategy strategy, int n_inter,
                                    const PanelOptions& o) {
  return exp::panel_cfg(app, strategy, n_inter, o);
}

/// Accumulates a whole figure's grid of (config x seeds) cells, executes
/// them in one parallel sweep, then hands back per-cell seed averages.
/// Usage: add() every cell, run() once, then avg(cell_id) while formatting.
class SweepGrid {
 public:
  /// Register one averaged data point: `n_seeds` runs of `cfg` with seeds
  /// derived from (cfg.seed, 0..n_seeds-1). Returns the cell id.
  std::size_t add(const exp::ScenarioConfig& cfg, int n_seeds) {
    cells_.push_back(
        Cell{cfgs_.size(), static_cast<std::size_t>(n_seeds)});
    for (const auto& c : exp::seed_grid(cfg, n_seeds)) cfgs_.push_back(c);
    return cells_.size() - 1;
  }

  /// Execute every registered run on the sweep pool. Call exactly once.
  /// IRS_BENCH_NDJSON=PATH also streams every result as one result_json
  /// per line, appended in run order.
  void run() {
    if (const char* path = std::getenv("IRS_BENCH_NDJSON")) {
      std::ofstream out(path, std::ios::app);
      if (out) {
        results_ = exp::run_sweep(cfgs_, exp::ndjson_consumer(out));
        return;
      }
      std::cerr << "warning: cannot open IRS_BENCH_NDJSON path '" << path
                << "'; streaming disabled\n";
    }
    results_ = exp::run_sweep(cfgs_);
  }

  /// Seed-averaged result of one cell (run() must have completed).
  [[nodiscard]] exp::RunResult avg(std::size_t cell) const {
    const Cell& c = cells_.at(cell);
    return exp::average_results(std::vector<exp::RunResult>(
        results_.begin() + static_cast<std::ptrdiff_t>(c.offset),
        results_.begin() + static_cast<std::ptrdiff_t>(c.offset + c.len)));
  }

  [[nodiscard]] std::size_t n_runs() const { return cfgs_.size(); }

 private:
  struct Cell {
    std::size_t offset = 0;
    std::size_t len = 0;
  };
  std::vector<Cell> cells_;
  std::vector<exp::ScenarioConfig> cfgs_;
  std::vector<exp::RunResult> results_;
};

namespace detail {

/// Shared skeleton of the improvement/weighted panels: one baseline cell
/// plus one cell per strategy for every (app, inter-level), submitted as a
/// single grid; `fmt` turns (baseline, strategy result) into a table cell.
template <typename Fmt>
void strategy_panel(const std::string& title,
                    const std::vector<std::string>& apps,
                    const PanelOptions& o, Fmt&& fmt) {
  exp::banner(std::cout, title);
  std::vector<std::string> headers = {"app"};
  for (const int n : o.inter_levels) {
    for (const auto s : o.strategies) {
      headers.push_back(std::to_string(n) + "-inter " +
                        core::strategy_name(s));
    }
  }
  exp::Table table(headers);
  const int seeds = exp::bench_seeds();

  SweepGrid grid;
  struct Point {
    std::size_t base;
    std::vector<std::size_t> per_strategy;
  };
  std::vector<std::vector<Point>> points;  // [app][inter]
  for (const auto& app : apps) {
    std::vector<Point> row;
    for (const int n : o.inter_levels) {
      Point p;
      p.base = grid.add(make_cfg(app, core::Strategy::kBaseline, n, o),
                        seeds);
      for (const auto s : o.strategies) {
        p.per_strategy.push_back(grid.add(make_cfg(app, s, n, o), seeds));
      }
      row.push_back(std::move(p));
    }
    points.push_back(std::move(row));
  }
  grid.run();

  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::vector<std::string> row = {apps[a]};
    for (const Point& p : points[a]) {
      const exp::RunResult base = grid.avg(p.base);
      for (const std::size_t cell : p.per_strategy) {
        row.push_back(fmt(base, grid.avg(cell)));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

}  // namespace detail

/// One figure panel: performance improvement (%) over vanilla Xen/Linux
/// for each app x (strategy, inter-level). Mirrors Fig. 5/6/12/13 rows.
inline void improvement_panel(const std::string& title,
                              const std::vector<std::string>& apps,
                              const PanelOptions& o) {
  detail::strategy_panel(
      title, apps, o, [](const exp::RunResult& base, const exp::RunResult& r) {
        return exp::fmt_pct(exp::improvement_pct(base, r));
      });
}

/// Weighted-speedup panel (Fig. 7/9): fg+bg speedup vs vanilla, percent
/// (100 = parity).
inline void weighted_panel(const std::string& title,
                           const std::vector<std::string>& apps,
                           const PanelOptions& o) {
  detail::strategy_panel(
      title, apps, o, [](const exp::RunResult& base, const exp::RunResult& r) {
        return exp::fmt_f(exp::weighted_speedup_pct(base, r), 1) + "%";
      });
}

}  // namespace irs::bench
