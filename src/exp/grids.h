// Named figure grids: every plain-sweep figure of the paper (fig02,
// fig05-fig13) as a deterministic function from a name to the flat
// vector<ScenarioConfig> its benchmark executes. `irs_sweep --fig fig05`
// runs exactly this grid, and the repo benchmark times it.
//
// Grid order is part of the contract (run index == NDJSON line number):
// panels in figure order, then apps, then interference levels, then
// strategies (baseline first), then seeds innermost — the same nesting the
// bench binaries register. fig01 is excluded: it is a bespoke procedure
// (src/exp/scenarios.h), not a grid.
#pragma once

#include <string>
#include <vector>

#include "src/core/strategy.h"
#include "src/exp/runner.h"

namespace irs::exp {

/// Baseline per-thread work scale for figure sweeps (keeps each run fast
/// while preserving many hv-scheduling periods per run).
inline constexpr double kPanelWorkScale = 0.5;

/// Knobs shared by the figure panels (previously bench/bench_util.h; moved
/// here so the grid registry and the bench binaries build identical
/// configs from one definition).
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
  /// Seeds per data point; 0 = bench_seeds() (IRS_BENCH_SEEDS/FAST aware).
  int seeds = 0;
  /// Trim the grid the way IRS_BENCH_FAST trims the bench binaries
  /// (fewer apps/levels, first panel only).
  bool fast = false;
};

/// Names accepted by figure_grid, in display order. Multi-panel figures
/// are listed both whole ("fig05") and per panel ("fig05a".."fig05c").
std::vector<std::string> figure_grid_names();

/// The named grid, seeds expanded (derive_seed per point). Returns an
/// empty vector for unknown names — no real grid is empty.
std::vector<ScenarioConfig> figure_grid(const std::string& name,
                                        const GridOptions& opt = {});

}  // namespace irs::exp
