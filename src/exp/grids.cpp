#include "src/exp/grids.h"

#include "src/exp/sweep.h"
#include "src/wl/npb.h"
#include "src/wl/parsec.h"

namespace irs::exp {

PanelOptions::PanelOptions() = default;

ScenarioConfig panel_cfg(const std::string& app, core::Strategy strategy,
                         int n_inter, const PanelOptions& o) {
  ScenarioConfig cfg;
  cfg.fg = app;
  cfg.fg_threads = o.n_vcpus;
  cfg.strategy = strategy;
  cfg.bg = o.bg;
  cfg.n_inter = n_inter;
  cfg.n_bg_vms = o.n_bg_vms;
  cfg.n_vcpus = o.n_vcpus;
  cfg.n_pcpus = o.n_pcpus;
  cfg.pinned = o.pinned;
  cfg.npb_spinning = o.npb_spinning;
  cfg.work_scale = o.work_scale;
  return cfg;
}

namespace {

/// Builder collecting seed-expanded cells in registration order.
class Grid {
 public:
  explicit Grid(int seeds) : seeds_(seeds) {}

  void add(const ScenarioConfig& cfg) {
    for (const auto& c : seed_grid(cfg, seeds_)) cfgs_.push_back(c);
  }

  /// One panel the shape of detail::strategy_panel: for every (app, level),
  /// a baseline cell then one cell per compared strategy.
  void strategy_panel(const std::vector<std::string>& apps,
                      const PanelOptions& o) {
    for (const auto& app : apps) {
      for (const int n : o.inter_levels) {
        add(panel_cfg(app, core::Strategy::kBaseline, n, o));
        for (const auto s : o.strategies) add(panel_cfg(app, s, n, o));
      }
    }
  }

  std::vector<ScenarioConfig> take() { return std::move(cfgs_); }

 private:
  int seeds_;
  std::vector<ScenarioConfig> cfgs_;
};

/// IRS_BENCH_FAST trimming of an improvement/weighted panel's app and
/// level lists, mirroring bench_util.h's behaviour.
std::vector<std::string> trim_apps(std::vector<std::string> apps, bool fast) {
  if (fast && apps.size() > 3) apps.resize(3);
  return apps;
}

/// Multi-panel improvement/weighted figure: one strategy_panel per
/// background workload; fast mode keeps the first panel only and trims
/// apps/levels (the bench binaries skip panels (b)/(c) under
/// IRS_BENCH_FAST).
void bg_panels(Grid& g, const std::vector<std::string>& apps,
               const std::vector<std::string>& bgs, PanelOptions o,
               bool fast, char panel /* 0 = all */) {
  const std::vector<std::string> trimmed = trim_apps(apps, fast);
  if (fast) o.inter_levels = {1};
  for (std::size_t i = 0; i < bgs.size(); ++i) {
    if (panel != 0 && panel != static_cast<char>('a' + i)) continue;
    if (panel == 0 && fast && i > 0) break;
    o.bg = bgs[i];
    g.strategy_panel(trimmed, o);
  }
}

void fig02(Grid& g) {
  auto add_one = [&](const std::string& app) {
    PanelOptions o;
    o.npb_spinning = false;
    g.add(panel_cfg(app, core::Strategy::kBaseline, 1, o));
  };
  for (const char* app :
       {"streamcluster", "canneal", "fluidanimate", "bodytrack", "x264",
        "facesim", "blackscholes"}) {
    add_one(app);
  }
  for (const char* app : {"BT", "CG", "MG", "FT", "SP", "UA"}) add_one(app);
  add_one("raytrace");
}

void fig08(Grid& g) {
  for (const char* app : {"specjbb", "ab"}) {
    for (int n = 1; n <= 4; ++n) {
      PanelOptions o;
      ScenarioConfig base = panel_cfg(app, core::Strategy::kBaseline, n, o);
      base.server_duration = sim::seconds(2);
      ScenarioConfig irs = base;
      irs.strategy = core::Strategy::kIrs;
      g.add(base);
      g.add(irs);
    }
  }
}

/// Open-loop variant of Fig. 8: does IRS hold the tail when arrivals do
/// not back off? Same jbb/ab shape (four vCPUs, 1..4 hogs, Baseline vs.
/// IRS) but the foreground is the "frontend" workload, whose open-loop
/// Poisson arrivals keep coming during freezes — the accept queue absorbs
/// and the drop/shed ledgers expose what closed-loop clients hide. Two
/// overload arms: plain tail-drop and SLO-burn shedding.
void fig08_open(Grid& g) {
  for (const char* ov : {"drop", "shed"}) {
    for (int n = 1; n <= 4; ++n) {
      PanelOptions o;
      ScenarioConfig base =
          panel_cfg("frontend", core::Strategy::kBaseline, n, o);
      base.server_duration = sim::seconds(2);
      base.fe_overload = ov;
      ScenarioConfig irs = base;
      irs.strategy = core::Strategy::kIrs;
      g.add(base);
      g.add(irs);
    }
  }
}

void fig10(Grid& g, bool fast) {
  struct App {
    const char* name;
    bool npb_spinning;
  };
  const std::vector<std::string> bgs =
      fast ? std::vector<std::string>{"hog"}
           : std::vector<std::string>{"hog", "fluidanimate", "streamcluster"};
  for (const App app : {App{"x264", true}, App{"blackscholes", true},
                        App{"EP", false}, App{"MG", true}}) {
    for (const auto& bg : bgs) {
      for (const int n : {1, 2, 4, 6, 8}) {
        PanelOptions o;
        o.n_vcpus = 8;
        o.n_pcpus = 8;
        o.bg = bg;
        o.npb_spinning = app.npb_spinning;
        g.add(panel_cfg(app.name, core::Strategy::kBaseline, n, o));
        g.add(panel_cfg(app.name, core::Strategy::kIrs, n, o));
      }
    }
  }
}

void fig11(Grid& g) {
  for (const char* app : {"x264", "blackscholes", "EP", "MG"}) {
    const bool npb_spin = app == std::string("MG");
    for (const int n_inter : {1, 2, 4}) {
      for (int vms = 1; vms <= 3; ++vms) {
        PanelOptions o;
        o.bg = "hog";
        o.n_bg_vms = vms;
        o.npb_spinning = npb_spin || app != std::string("EP");
        g.add(panel_cfg(app, core::Strategy::kBaseline, n_inter, o));
        g.add(panel_cfg(app, core::Strategy::kIrs, n_inter, o));
      }
    }
  }
}

/// Cluster figure: the two-host virtual datacenter. A protected "ab"
/// server fixed on host 0 and 1..4 migratable two-vCPU hog VMs admitted by
/// each placement policy; compares the foreground tail (lat_p999_ns)
/// across random / first-fit / IRS-informed placement, with Baseline and
/// IRS per-host scheduling as the inner arms.
void fig_cluster(Grid& g, bool fast) {
  const int max_hogs = fast ? 2 : 4;
  for (const char* pol : {"random", "firstfit", "irs"}) {
    for (int n = 1; n <= max_hogs; ++n) {
      for (const auto s : {core::Strategy::kBaseline, core::Strategy::kIrs}) {
        PanelOptions o;
        ScenarioConfig cfg = panel_cfg("ab", s, 2, o);
        cfg.server_duration = sim::seconds(2);
        cfg.n_bg_vms = n;
        cfg.cluster.n_hosts = 2;
        cfg.cluster.policy = pol;
        g.add(cfg);
      }
    }
  }
}

}  // namespace

std::vector<std::string> figure_grid_names() {
  return {"fig02",  "fig05",  "fig05a", "fig05b", "fig05c", "fig06",
          "fig06a", "fig06b", "fig06c", "fig07",  "fig07a", "fig07b",
          "fig08",  "fig08_open",        "fig09",  "fig09a", "fig09b",
          "fig10",  "fig11",  "fig12",  "fig13",  "fig_cluster"};
}

std::vector<ScenarioConfig> figure_grid(const std::string& name,
                                        const GridOptions& opt) {
  const int seeds = opt.seeds > 0 ? opt.seeds : bench_seeds();
  Grid g(seeds);
  const bool fast = opt.fast;
  // "figNN" runs the whole figure; "figNNx" one panel of it.
  auto panel_of = [&](const std::string& base) -> char {
    if (name == base) return 0;
    if (name.size() == base.size() + 1 && name.compare(0, base.size(), base) == 0) {
      return name.back();
    }
    return '?';
  };

  if (name == "fig02") {
    fig02(g);
  } else if (const char p = panel_of("fig05"); p != '?') {
    bg_panels(g, wl::parsec_names(),
              {"hog", "streamcluster", "fluidanimate"}, PanelOptions{}, fast,
              p);
  } else if (const char p = panel_of("fig06"); p != '?') {
    PanelOptions o;
    o.npb_spinning = true;
    bg_panels(g, wl::npb_names(), {"hog", "UA", "LU"}, o, fast, p);
  } else if (const char p = panel_of("fig07"); p != '?') {
    bg_panels(g, wl::parsec_names(), {"fluidanimate", "streamcluster"},
              PanelOptions{}, fast, p);
  } else if (name == "fig08") {
    fig08(g);
  } else if (name == "fig08_open") {
    fig08_open(g);
  } else if (const char p = panel_of("fig09"); p != '?') {
    PanelOptions o;
    o.npb_spinning = true;
    bg_panels(g, wl::npb_names(), {"LU", "UA"}, o, fast, p);
  } else if (name == "fig10") {
    fig10(g, fast);
  } else if (name == "fig11") {
    fig11(g);
  } else if (name == "fig12") {
    PanelOptions o;
    o.bg = "hog";
    o.pinned = false;
    o.inter_levels = {4};
    o.npb_spinning = true;
    g.strategy_panel(trim_apps(wl::npb_names(), fast), o);
  } else if (name == "fig13") {
    PanelOptions o;
    o.bg = "hog";
    o.pinned = false;
    o.inter_levels = {4};
    g.strategy_panel(trim_apps(wl::parsec_names(), fast), o);
  } else if (name == "fig_cluster") {
    fig_cluster(g, fast);
  } else {
    return {};
  }
  return g.take();
}

}  // namespace irs::exp
