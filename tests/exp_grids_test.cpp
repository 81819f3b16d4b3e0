// Tests for the named-grid registry (src/exp/grids.h): the run count of
// every grid, the seed chunking the bench renderers rely on, and unknown
// names.
#include "src/exp/grids.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace irs::exp {
namespace {

TEST(Grids, RunCountOfEveryGridIsPinned) {
  // name -> {runs, runs with fast} at one seed per point.
  const std::map<std::string, std::pair<std::size_t, std::size_t>> want = {
      {"fig02", {14, 14}},         {"fig05", {432, 12}},
      {"fig05a", {144, 12}},       {"fig05b", {144, 12}},
      {"fig05c", {144, 12}},       {"fig06", {324, 12}},
      {"fig06a", {108, 12}},       {"fig06b", {108, 12}},
      {"fig06c", {108, 12}},       {"fig07", {288, 12}},
      {"fig07a", {144, 12}},       {"fig07b", {144, 12}},
      {"fig08", {16, 16}},         {"fig08_open", {16, 16}},
      {"fig09", {216, 12}},        {"fig09a", {108, 12}},
      {"fig09b", {108, 12}},       {"fig10", {120, 40}},
      {"fig11", {72, 72}},         {"fig12", {36, 12}},
      {"fig13", {48, 12}},         {"fig_cluster", {24, 12}},
      {"abl_sa_overhead", {10, 10}}, {"abl_design", {36, 36}},
      {"abl_extensions", {44, 44}},
  };
  const std::vector<std::string> names = figure_grid_names();
  EXPECT_EQ(names.size(), want.size());
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    ASSERT_EQ(want.count(name), 1u);
    EXPECT_EQ(figure_grid(name, {1, false}).size(), want.at(name).first);
    EXPECT_EQ(figure_grid(name, {1, true}).size(), want.at(name).second);
  }
}

/// Every config field a bench renderer reads to label or place a cell.
auto rendered_fields(const ScenarioConfig& c) {
  return std::tuple(c.strategy, c.fg, c.n_threads, c.bg, c.n_inter,
                    c.n_bg_vms, c.n_vcpus, c.n_pcpus, c.pinned,
                    c.npb_spinning, c.work_scale, c.server_duration,
                    c.fe_overload, c.cluster.n_hosts, c.cluster.policy,
                    c.hv.sa_ack_cap, c.fg_guest.irs_wakeup_fix,
                    c.fg_guest.migrator_policy, c.fg_guest.idle_poll_period);
}

TEST(Grids, EachPointsSeedsAreConsecutiveAndDifferOnlyInSeed) {
  constexpr std::size_t kSeeds = 3;
  for (const std::string& name : figure_grid_names()) {
    for (const bool fast : {false, true}) {
      SCOPED_TRACE(name + (fast ? " fast" : ""));
      const auto grid = figure_grid(name, {static_cast<int>(kSeeds), fast});
      ASSERT_EQ(grid.size() % kSeeds, 0u);
      for (std::size_t i = 0; i < grid.size(); i += kSeeds) {
        for (std::size_t s = 1; s < kSeeds; ++s) {
          EXPECT_EQ(rendered_fields(grid[i + s]), rendered_fields(grid[i]))
              << "run " << i + s;
          for (std::size_t t = 0; t < s; ++t) {
            EXPECT_NE(grid[i + s].seed, grid[i + t].seed) << "run " << i + s;
          }
        }
      }
    }
  }
}

TEST(Grids, UnknownNameIsAnEmptyGrid) {
  for (const char* name : {"", "fig99", "fig05d", "fig10a", "abl_nope"}) {
    EXPECT_TRUE(figure_grid(name, {1, false}).empty()) << name;
    EXPECT_TRUE(figure_grid(name, {1, true}).empty()) << name;
  }
}

}  // namespace
}  // namespace irs::exp
