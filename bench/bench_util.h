// Shared helpers for the per-figure benchmark binaries. Each binary renders
// named grids of the registry (src/exp/grids.h), so the tables it prints
// and `irs_sweep --fig NAME` come from one definition; no binary builds a
// grid of its own.
//
// Absolute numbers are simulation-specific; the shapes (who wins, by
// roughly what factor, where crossovers fall) are what EXPERIMENTS.md
// compares. run_grid executes a whole grid in one parallel sweep
// (IRS_BENCH_JOBS workers, default hardware concurrency), bit-identical to
// a serial one; IRS_BENCH_FAST swaps in the registry's trimmed grid at one
// seed (GridOptions::fast).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/grids.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/exp/sweep.h"

namespace irs::bench {

/// The bench environment (IRS_ENGINE_QUEUE, IRS_BENCH_JOBS,
/// IRS_BENCH_SEEDS), checked before any run: returns bench_seeds(), or
/// exits 2 with the message when a value is malformed.
inline int checked_seeds() {
  try {
    sim::default_queue_kind();
    exp::sweep_jobs();
    return exp::bench_seeds();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// One data point of a grid: the config its seeds share (the first seed's)
/// and the average of its runs.
struct Cell {
  exp::ScenarioConfig cfg;
  exp::RunResult avg;
};

/// Run the named registry grid once, checked_seeds() seeds per point (the
/// trimmed grid under IRS_BENCH_FAST), and average each point's
/// consecutive seed runs. Cells come back in grid order.
inline std::vector<Cell> run_grid(const std::string& name) {
  const int seeds = checked_seeds();
  const auto cfgs = exp::figure_grid(name, {seeds, exp::bench_fast()});
  const auto runs = exp::run_sweep(cfgs);
  std::vector<Cell> cells;
  for (auto it = runs.begin(); it != runs.end(); it += seeds) {
    cells.push_back({cfgs[static_cast<std::size_t>(it - runs.begin())],
                     exp::average_results(std::vector(it, it + seeds))});
  }
  return cells;
}

/// A baseline cell and the cells after it up to the next baseline: the
/// arms compared against it (grids.h lists every comparison that way).
struct Group {
  const Cell& base;
  std::span<const Cell> arms;
};

/// Groups refer into `cells`, which must outlive them.
inline std::vector<Group> baseline_groups(const std::vector<Cell>& cells) {
  std::vector<Group> groups;
  for (std::size_t i = 0, j = 0; i < cells.size(); i = j) {
    for (j = i + 1; j < cells.size() &&
                    cells[j].cfg.strategy != core::Strategy::kBaseline;
         ++j) {
    }
    groups.push_back({cells[i], std::span(cells).subspan(i + 1, j - i - 1)});
  }
  return groups;
}
std::vector<Group> baseline_groups(const std::vector<Cell>&&) = delete;

/// Maximal runs of consecutive elements of `items` with equal key(element).
template <typename Range, typename Key>
auto runs_by(const Range& items, Key key) {
  using T = std::ranges::range_value_t<Range>;
  const std::span<const T> all(items);
  std::vector<std::span<const T>> out;
  for (std::size_t i = 0, j = 0; i < all.size(); i = j) {
    for (j = i + 1; j < all.size() && key(all[j]) == key(all[i]); ++j) {
    }
    out.push_back(all.subspan(i, j - i));
  }
  return out;
}

/// "Baseline" for vanilla Xen/Linux, else the strategy's name.
inline std::string arm_name(const exp::ScenarioConfig& c) {
  return c.strategy == core::Strategy::kBaseline
             ? "Baseline"
             : core::strategy_name(c.strategy);
}

/// "1-inter", "4-inter", ...
inline std::string inter(const exp::ScenarioConfig& c) {
  return std::to_string(c.n_inter) + "-inter";
}

/// Makespan improvement over the baseline (Fig. 5/6/10-13).
inline std::string improvement(const exp::RunResult& base,
                               const exp::RunResult& r) {
  return exp::fmt_pct(exp::improvement_pct(base, r));
}

/// fg+bg weighted speedup vs the baseline, percent (Fig. 7/9; 100 =
/// parity).
inline std::string weighted(const exp::RunResult& base,
                            const exp::RunResult& r) {
  return exp::fmt_f(exp::weighted_speedup_pct(base, r), 1) + "%";
}

using CfgLabel = std::function<std::string(const exp::ScenarioConfig&)>;

/// How comparison_tables lays a grid's baseline-led groups out.
struct Layout {
  /// Banner of table k, from a group's baseline config; consecutive groups
  /// with one banner form table k.
  std::function<std::string(std::size_t k, const exp::ScenarioConfig&)>
      title;
  /// Header of the row-label column.
  std::string corner = "app";
  /// Row label, from a group's baseline config; consecutive groups with
  /// one label form a row.
  CfgLabel row = [](const exp::ScenarioConfig& c) { return c.fg; };
  /// Column header, from an arm's config.
  CfgLabel column = [](const exp::ScenarioConfig& c) {
    return inter(c) + " " + core::strategy_name(c.strategy);
  };
  /// Table cell of an arm against its group's baseline.
  std::string (*value)(const exp::RunResult& base,
                       const exp::RunResult& arm) = improvement;
};

/// Print a comparison grid: one table per banner, one row per row label,
/// one column per arm of the table's first row.
inline void comparison_tables(const std::vector<Cell>& cells,
                              const Layout& layout) {
  const auto groups = baseline_groups(cells);
  std::size_t k = 0;
  for (std::size_t i = 0, j = 0; i < groups.size(); i = j, ++k) {
    const std::string title = layout.title(k, groups[i].base.cfg);
    for (j = i + 1;
         j < groups.size() && layout.title(k, groups[j].base.cfg) == title;
         ++j) {
    }
    const auto rows =
        runs_by(std::span(groups).subspan(i, j - i),
                [&](const Group& g) { return layout.row(g.base.cfg); });
    exp::banner(std::cout, title);
    std::vector<std::string> headers = {layout.corner};
    for (const Group& g : rows.front()) {
      for (const Cell& a : g.arms) headers.push_back(layout.column(a.cfg));
    }
    exp::Table t(std::move(headers));
    for (const auto row : rows) {
      std::vector<std::string> line = {layout.row(row.front().base.cfg)};
      for (const Group& g : row) {
        for (const Cell& a : g.arms) {
          line.push_back(layout.value(g.base.avg, a.avg));
        }
      }
      t.add_row(std::move(line));
    }
    t.print(std::cout);
  }
}

/// "Figure 5(a): " for panel k = 0 of "Figure 5".
inline std::string panel(const std::string& figure, std::size_t k) {
  return figure + "(" + static_cast<char>('a' + k) + "): ";
}

/// "unpinned, 4-inter hogs": placement and interference of a stacking
/// cell (Fig. 12/13).
inline std::string stacking(const exp::ScenarioConfig& c) {
  return std::string(c.pinned ? "pinned" : "unpinned") + ", " + inter(c) +
         " " + c.bg + "s";
}

}  // namespace irs::bench
