// Named grids: every plain-sweep figure of the paper (fig02, fig05-fig13),
// the cluster figure and the three ablations (abl_*), each a deterministic
// function from a name to the flat vector<ScenarioConfig> that is the one
// definition of that grid. The figure's bench binary renders it
// (bench/bench_util.h: run_grid), `irs_sweep --fig NAME` streams it as
// NDJSON, and the repo benchmark times it.
//
// Grid order is part of the contract (run index == NDJSON line number, and
// the bench renderers read rows and columns off it): panels in figure
// order, then apps, then interference levels, then a baseline cell followed
// by the cells compared against it, then seeds innermost, so each data
// point's seeds are consecutive. fig01 is excluded: it is a bespoke
// procedure (src/exp/scenarios.h), not a grid.
#pragma once

#include <string>
#include <vector>

#include "src/core/strategy.h"
#include "src/exp/runner.h"

namespace irs::exp {

/// Baseline per-thread work scale for figure sweeps (keeps each run fast
/// while preserving many hv-scheduling periods per run).
inline constexpr double kPanelWorkScale = 0.5;

/// Knobs shared by the figure panels; panel_cfg turns them into one cell.
struct PanelOptions {
  PanelOptions();  // out of line: GCC 12 mis-fires maybe-uninitialized on
                   // the inlined initializer_list copies otherwise
  std::string bg = "hog";
  std::vector<int> inter_levels = {1, 2, 4};
  std::vector<core::Strategy> strategies = {core::Strategy::kPle,
                                            core::Strategy::kRelaxedCo,
                                            core::Strategy::kIrs};
  int n_vcpus = 4;
  int n_pcpus = 4;
  int n_bg_vms = 1;
  bool pinned = true;
  bool npb_spinning = true;
  double work_scale = kPanelWorkScale;
};

/// One cell of a figure panel: `app` under `strategy` with `n_inter`
/// interfered vCPUs, remaining knobs from `o`.
ScenarioConfig panel_cfg(const std::string& app, core::Strategy strategy,
                         int n_inter, const PanelOptions& o);

struct GridOptions {
  /// Seeds per data point; 0 = bench_seeds().
  int seeds = 0;
  /// The trimmed smoke grid, which the bench binaries run under
  /// IRS_BENCH_FAST: a multi-panel figure keeps its first panel at three
  /// apps and 1-inter, fig12/fig13 keep three apps, fig10 the hog
  /// background, fig_cluster one and two hogs. Other grids ignore it.
  bool fast = false;
};

/// Names accepted by figure_grid, in display order. Multi-panel figures
/// are listed both whole ("fig05") and per panel ("fig05a".."fig05c"); the
/// ablations follow the figures.
std::vector<std::string> figure_grid_names();

/// The named grid, seeds expanded (derive_seed per point). Returns an
/// empty vector for unknown names — no real grid is empty.
std::vector<ScenarioConfig> figure_grid(const std::string& name,
                                        const GridOptions& opt = {});

}  // namespace irs::exp
