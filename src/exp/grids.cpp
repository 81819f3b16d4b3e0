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
  cfg.n_threads = o.n_vcpus;
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

  /// One strategy panel: for every (app, level), a baseline cell then one
  /// cell per compared strategy.
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

/// The fast grid's app list: the first three apps.
std::vector<std::string> trim_apps(std::vector<std::string> apps, bool fast) {
  if (fast && apps.size() > 3) apps.resize(3);
  return apps;
}

/// Multi-panel improvement/weighted figure: one strategy_panel per
/// background workload; the fast grid keeps the first panel only, at
/// three apps and 1-inter.
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

/// §3.1 overhead check: SA processing delay per app under IRS at 1-inter,
/// then the hard acknowledgement-cap sweep, all on one app (the renderer
/// splits the two tables there).
void abl_sa_overhead(Grid& g) {
  const PanelOptions o;
  for (const char* app :
       {"streamcluster", "fluidanimate", "x264", "UA", "MG", "specjbb"}) {
    g.add(panel_cfg(app, core::Strategy::kIrs, 1, o));
  }
  for (const long cap_us : {15L, 30L, 100L, 1000L}) {
    ScenarioConfig cfg = panel_cfg("streamcluster", core::Strategy::kIrs, 1, o);
    cfg.hv.sa_ack_cap = sim::microseconds(cap_us);
    g.add(cfg);
  }
}

/// IRS design ablations at 1-inter, one table each: the Fig. 4 wake-up fix
/// on/off, the migrator's target policy (Algorithm 2 first), and the idle
/// housekeeping period (0 = off). Every app's group leads with a baseline
/// cell; the IRS arms differ from the default guest in one knob.
void abl_design(Grid& g) {
  const std::vector<std::string> apps = {"streamcluster", "fluidanimate",
                                         "UA"};
  auto add = [&](const std::string& app, core::Strategy s,
                 const guest::GuestConfig& gc) {
    ScenarioConfig cfg = panel_cfg(app, s, 1, PanelOptions{});
    cfg.fg_guest = gc;
    g.add(cfg);
  };
  const guest::GuestConfig dflt;
  for (const auto& app : apps) {
    guest::GuestConfig off;
    off.irs_wakeup_fix = false;
    add(app, core::Strategy::kBaseline, dflt);
    add(app, core::Strategy::kIrs, dflt);
    add(app, core::Strategy::kIrs, off);
  }
  for (const auto& app : apps) {
    add(app, core::Strategy::kBaseline, dflt);
    for (const auto pol : {guest::MigratorPolicy::kIdleThenLeastLoaded,
                           guest::MigratorPolicy::kLeastLoadedOnly,
                           guest::MigratorPolicy::kFirstRunning}) {
      guest::GuestConfig gc;
      gc.migrator_policy = pol;
      add(app, core::Strategy::kIrs, gc);
    }
  }
  for (const auto& app : apps) {
    add(app, core::Strategy::kBaseline, dflt);
    for (const long ms : {4L, 10L, 30L, 0L}) {
      guest::GuestConfig gc;
      gc.idle_poll_period = sim::milliseconds(ms);
      add(app, core::Strategy::kIrs, gc);
    }
  }
}

/// Extension strategies beyond the paper (Delay-Preempt, IRS-Pull) next to
/// IRS: eight apps at 1-inter, three at 4-inter. Full-length runs give the
/// delay-preemption window enough preemption-in-CS coincidences to matter.
void abl_extensions(Grid& g) {
  PanelOptions o;
  o.work_scale = 1.0;
  o.strategies = {core::Strategy::kDelayPreempt, core::Strategy::kIrs,
                  core::Strategy::kIrsPull};
  o.inter_levels = {1};
  g.strategy_panel({"x264", "fluidanimate", "streamcluster", "blackscholes",
                    "UA", "MG", "EP", "raytrace"},
                   o);
  o.inter_levels = {4};
  g.strategy_panel({"x264", "streamcluster", "UA"}, o);
}

}  // namespace

std::vector<std::string> figure_grid_names() {
  return {"fig02",  "fig05",  "fig05a", "fig05b", "fig05c", "fig06",
          "fig06a", "fig06b", "fig06c", "fig07",  "fig07a", "fig07b",
          "fig08",  "fig08_open",        "fig09",  "fig09a", "fig09b",
          "fig10",  "fig11",  "fig12",  "fig13",  "fig_cluster",
          "abl_sa_overhead", "abl_design", "abl_extensions"};
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
  } else if (name == "abl_sa_overhead") {
    abl_sa_overhead(g);
  } else if (name == "abl_design") {
    abl_design(g);
  } else if (name == "abl_extensions") {
    abl_extensions(g);
  } else {
    return {};
  }
  return g.take();
}

}  // namespace irs::exp
