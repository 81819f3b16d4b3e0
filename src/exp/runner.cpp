#include "src/exp/runner.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "src/cluster/cluster.h"
#include "src/exp/sweep.h"
#include "src/wl/registry.h"
#include "src/wl/serving.h"

namespace irs::exp {

namespace {

/// Pin vCPU i of a VM with n vCPUs to pCPU i.
std::vector<hv::PcpuId> identity_pins(int n) {
  std::vector<hv::PcpuId> pins;
  for (int i = 0; i < n; ++i) pins.push_back(i);
  return pins;
}

/// Foreground workload options shared by the single-host and cluster paths.
wl::WorkloadOptions fg_options(const ScenarioConfig& cfg) {
  wl::WorkloadOptions fg_opts;
  fg_opts.n_threads = cfg.fg_threads;
  fg_opts.npb_spinning = cfg.npb_spinning;
  fg_opts.work_scale = cfg.work_scale;
  fg_opts.server_duration = cfg.server_duration;
  fg_opts.jbb_cs_len = cfg.jbb_cs_len;
  fg_opts.jbb_cs_every = cfg.jbb_cs_every;
  fg_opts.jbb_cs_spin = cfg.jbb_cs_spin;
  fg_opts.fe_arrival = cfg.fe_arrival;
  fg_opts.fe_rate_hz = cfg.fe_rate_hz;
  fg_opts.fe_overload = cfg.fe_overload;
  fg_opts.fe_queue_cap = cfg.fe_queue_cap;
  fg_opts.fe_keepalive = cfg.fe_keepalive;
  return fg_opts;
}

/// Checked in every build: throws std::invalid_argument naming `field`
/// unless `ok`.
template <typename T>
void require(bool ok, const char* field, const char* want, T got) {
  if (ok) return;
  std::ostringstream os;
  os << "run_scenario: " << field << " must be " << want << " (got " << got
     << ")";
  throw std::invalid_argument(os.str());
}

/// Slice cfg's host shape into *wc, turning the ring and the sampler on at
/// their defaults where a capture needs them: forensics' roomier ring
/// wins, so asking for a dump never shrinks it.
void host_shape(const ScenarioConfig& cfg, bool forensics, bool dump,
                core::WorldConfig* wc) {
  *wc = cfg;
  if (wc->trace_capacity == 0) {
    wc->trace_capacity = forensics ? kForensicsRing : dump ? kDumpRing : 0;
  }
  if (dump && wc->sample_period == 0) {
    wc->sample_period = obs::Sampler::kDefaultPeriod;
  }
}

/// The foreground VM, its vCPU i pinned to pCPU i unless cfg unpins it.
hv::VmConfig fg_vm(const ScenarioConfig& cfg) {
  hv::VmConfig vm;
  vm.name = "fg";
  vm.n_vcpus = cfg.n_vcpus;
  if (cfg.pinned) vm.pin_map = identity_pins(cfg.n_vcpus);
  return vm;
}

/// Attach the foreground workload to VM `fg` of `node`. Returns its
/// request recorder, or null if it is not a server. Windowed SLO tracking
/// is passive, so the simulation is unperturbed: slo_window < 0 disables
/// it. `spans` turns on the request-span log forensics replays.
wl::Serving* attach_fg(const ScenarioConfig& cfg, core::HostNode& node,
                       hv::VmId fg, bool spans) {
  wl::Serving* srv =
      node.attach(fg, wl::make_workload(cfg.fg, fg_options(cfg))).serving();
  if (srv == nullptr) return nullptr;
  // Throughput divides by it; only servers read it.
  require(cfg.server_duration > 0, "server_duration", "> 0",
          cfg.server_duration);
  if (cfg.slo_window >= 0) srv->enable_slo();
  if (spans) srv->enable_request_spans();
  return srv;
}

/// The foreground's metrics: makespan, utilisation and efficiency against
/// its fair share, its guest's IRS migrations and, for a server, the
/// throughput, the latency tail (p99 and the exact p999 fig_cluster
/// compares), the SLO capture and the conservation ledger (empty but for
/// the front-end).
void read_fg(core::HostNode& node, hv::VmId fg, wl::Serving* srv,
             RunResult* r) {
  const core::VmMetrics fgm = node.vm_metrics(fg);
  r->fg_makespan = fgm.makespan >= 0 ? fgm.makespan : fgm.elapsed;
  r->fg_util_vs_fair = fgm.util_vs_fair();
  r->fg_efficiency = fgm.efficiency_vs_fair();
  r->irs_migrations = node.kernel(fg).stats().irs_migrations;
  if (srv != nullptr) {
    r->throughput = srv->throughput();
    r->lat_mean = srv->latency().mean();
    r->lat_p99 = srv->latency().percentile(99.0);
    r->lat_p999 = srv->latency().percentile(99.9);
    r->slo = srv->slo_result(node.engine().now());
    r->frontend = srv->frontend_result();
  }
}

/// Fold every host's scheduler, SA, sampler and trace counters into *r:
/// counters add, sampler digests XOR, and the SA delay averages over the
/// SAs every host completed. A single-host run is a one-node list.
void read_hosts(const std::vector<core::HostNode*>& hosts, RunResult* r) {
  std::uint64_t sa_completed = 0;
  sim::Duration sa_delay_total = 0;
  for (core::HostNode* node : hosts) {
    const hv::SchedStats& ss = node->host().sched_stats();
    r->lhp += ss.lhp_events;
    r->lwp += ss.lwp_events;
    const hv::StrategyStats& st = node->host().strategy_stats();
    r->sa_sent += st.sa_sent;
    r->sa_acked += st.sa_acked;
    sa_completed += st.sa_acked + st.sa_forced;
    sa_delay_total += st.sa_delay_total;
    if (obs::Sampler* smp = node->sampler()) {
      r->sampler_digest ^= smp->digest();
    }
    r->trace_dropped += node->host().trace().dropped();
    r->trace_total_recorded += node->host().trace().total_recorded();
  }
  r->sa_delay_avg =
      sa_completed > 0
          ? sa_delay_total / static_cast<sim::Duration>(sa_completed)
          : 0;
}

/// The topology and drop accounting of one host node's trace.
obs::TraceMeta node_meta(core::HostNode& node, const std::string& title) {
  const sim::Trace& trace = node.host().trace();
  obs::TraceMeta meta;
  meta.title = title;
  meta.n_pcpus = node.host().n_pcpus();
  for (int vm_i = 0; vm_i < node.host().n_vms(); ++vm_i) {
    const hv::Vm& vm = node.host().vm(vm_i);
    int idx = 0;
    for (const hv::Vcpu* v : vm.vcpus()) {
      meta.vcpus.push_back(obs::VcpuInfo{v->id(), vm.name(), idx++});
    }
    guest::GuestKernel& k = node.kernel(vm_i);
    for (std::size_t t = 0; t < k.n_tasks(); ++t) {
      meta.tasks.push_back(
          obs::TaskInfo{k.task(t).id(), vm.name(), k.task(t).name()});
    }
  }
  meta.start = node.started_at();
  meta.end = node.engine().now();
  meta.dropped = trace.dropped();
  meta.total_recorded = trace.total_recorded();
  return meta;
}

/// Fill a TraceDump's records, meta and sampler series from one host node.
void fill_node_dump(core::HostNode& node, const std::string& title,
                    TraceDump* dump) {
  dump->records = node.host().trace().snapshot();
  dump->meta = node_meta(node, title);
  if (obs::Sampler* smp = node.sampler()) dump->series = smp->dump();
}

/// The classic single-host run (cfg.cluster.n_hosts < 2).
RunResult run_single(const ScenarioConfig& cfg, const RunCapture& capture) {
  TraceDump* dump = capture.dump;
  core::WorldConfig wc;
  host_shape(cfg, cfg.forensics, dump != nullptr, &wc);
  core::World world(wc);

  const hv::VmId fg =
      world.add_vm(fg_vm(cfg), /*irs_capable=*/true, cfg.fg_guest);
  wl::Serving* srv = attach_fg(cfg, world, fg, cfg.forensics);

  // Interfering VM(s): n_inter vCPUs pinned to pCPUs 0..n_inter-1, running
  // either CPU hogs or an endless real application (paper §5.1).
  std::vector<hv::VmId> bgs;
  if (!cfg.bg.empty() && cfg.n_inter > 0) {
    for (int i = 0; i < cfg.n_bg_vms; ++i) {
      hv::VmConfig bg_vm;
      bg_vm.name = "bg" + std::to_string(i);
      bg_vm.n_vcpus = cfg.n_inter;
      if (cfg.pinned) bg_vm.pin_map = identity_pins(cfg.n_inter);
      const hv::VmId bg = world.add_vm(bg_vm, /*irs_capable=*/false);
      wl::WorkloadOptions bg_opts;
      bg_opts.n_threads = cfg.n_inter;
      bg_opts.endless = true;
      bg_opts.npb_spinning = cfg.npb_spinning;
      world.attach(bg, wl::make_workload(cfg.bg, bg_opts));
      bgs.push_back(bg);
    }
  }

  world.start();
  RunResult r;
  r.finished = world.run_until_finished(fg, cfg.timeout);
  read_fg(world, fg, srv, &r);
  read_hosts({&world}, &r);
  if (!bgs.empty()) {
    double rate = 0;
    for (const hv::VmId bg : bgs) {
      const core::VmMetrics bgm = world.vm_metrics(bg);
      rate += bgm.progress / sim::to_sec(std::max<sim::Duration>(1, bgm.elapsed));
    }
    r.bg_progress_rate = rate;
  }

  const bool analyze = cfg.forensics && cfg.forensics_analyze;
  if (dump != nullptr || analyze) {
    const std::string title = cfg.fg + (cfg.bg.empty() ? "" : "+" + cfg.bg) +
                              " [" + core::strategy_name(cfg.strategy) + "]";
    // With forensics on, request spans were captured in the workload's
    // side log, not the ring. A dump writes their kReqBegin/kReqEnd records
    // into its snapshot; in-run analysis merges them on the fly instead,
    // reading the ring where it lies.
    const std::vector<obs::ReqSpan> no_spans;
    const std::vector<obs::ReqSpan>& spans =
        srv != nullptr ? srv->request_spans() : no_spans;
    if (dump != nullptr) {
      fill_node_dump(world, title, dump);
      if (!spans.empty()) {
        dump->records = obs::with_request_spans(dump->records, spans);
      }
      if (analyze) {
        r.forensics = obs::request_forensics(dump->records, dump->meta, r.slo);
      }
      dump->slo = r.slo;
      dump->forensics = r.forensics;
    } else {
      r.forensics = obs::request_forensics(world.host().trace().view(), spans,
                                           node_meta(world, title), r.slo);
    }
  }
  return r;
}

/// The cluster run (cfg.cluster.n_hosts >= 2): the foreground VM fixed on
/// host 0 and marked protected, every interfering VM a migratable gated-hog
/// VM the placement policy admits. Forensics is a single-host feature and
/// is ignored here; everything else folds across hosts (counters add,
/// sampler digests XOR).
RunResult run_cluster(const ScenarioConfig& cfg, const RunCapture& capture) {
  const bool want_dump =
      capture.dump != nullptr || capture.host_dumps != nullptr;
  cluster::ClusterConfig cc;
  host_shape(cfg, /*forensics=*/false, want_dump, &cc);
  cc.n_hosts = cfg.cluster.n_hosts;
  if (!cluster::policy_from_name(cfg.cluster.policy, &cc.policy)) {
    throw std::invalid_argument("run_scenario: unknown cluster policy '" +
                                cfg.cluster.policy +
                                "' (want random|firstfit|irs)");
  }
  cluster::Cluster cl(cc);

  // Foreground VM: fixed on host 0 and protected — the kIrs policy defends
  // its SLO budget by evicting noisy co-tenants from host 0.
  const cluster::CvmId fg =
      cl.add_vm(0, fg_vm(cfg), /*irs_capable=*/true, cfg.fg_guest);
  cl.set_protected(fg);
  wl::Serving* srv = attach_fg(cfg, cl.node(0), fg.vm, /*spans=*/false);

  // Interference: n_bg_vms migratable hog VMs, n_inter vCPUs/hogs each.
  if (!cfg.bg.empty() && cfg.n_inter > 0) {
    for (int i = 0; i < cfg.n_bg_vms; ++i) {
      cl.add_migratable_hog("bg" + std::to_string(i), cfg.n_inter,
                            cfg.n_inter);
    }
  }

  cl.start();
  RunResult r;
  r.finished = cl.run_until_finished(fg, cfg.timeout);
  // bg_progress_rate stays 0: hogs report no work units (same as the
  // single-host hog runs).
  read_fg(cl.node(0), fg.vm, srv, &r);
  std::vector<core::HostNode*> hosts;
  for (int h = 0; h < cl.n_hosts(); ++h) hosts.push_back(&cl.node(h));
  read_hosts(hosts, &r);
  r.cluster = cl.result();

  if (want_dump) {
    const std::string title =
        cfg.fg + "+hog [" + core::strategy_name(cfg.strategy) + ", " +
        cluster::policy_name(cc.policy) + "]";
    const auto n = static_cast<std::size_t>(cl.n_hosts());
    if (capture.host_dumps != nullptr) {
      capture.host_dumps->assign(n, TraceDump{});
      for (std::size_t h = 0; h < n; ++h) {
        core::HostNode& node = cl.node(static_cast<int>(h));
        fill_node_dump(node, title + " " + node.name(),
                       &(*capture.host_dumps)[h]);
      }
      (*capture.host_dumps)[0].slo = r.slo;
      if (capture.dump != nullptr) *capture.dump = (*capture.host_dumps)[0];
    } else if (capture.dump != nullptr) {
      fill_node_dump(cl.node(0), title + " " + cl.node(0).name(),
                     capture.dump);
      capture.dump->slo = r.slo;
    }
  }
  return r;
}

}  // namespace

void fold_blocks(RunResult& acc, const RunResult& r) {
  for_each_block([&](const char*, const char*, auto block, auto) {
    obs::fold_block(acc.*block, r.*block);
  });
}

void set_block_digests(RunResult& r) {
  for_each_block([&](const char*, const char*, auto block, auto digest) {
    r.*digest = (r.*block).digest();
  });
}

RunResult run_scenario(const ScenarioConfig& cfg, const RunCapture& capture) {
  // hv::Host rejects a zero pCPU or vCPU count. A foreground without
  // threads would run to its timeout, a timeout of 0 or less would end the
  // run before it starts, and a negative host count would quietly run one
  // host.
  require(cfg.n_inter >= 0, "n_inter", ">= 0", cfg.n_inter);
  require(cfg.n_bg_vms >= 0, "n_bg_vms", ">= 0", cfg.n_bg_vms);
  require(cfg.cluster.n_hosts >= 0, "cluster.n_hosts", ">= 0",
          cfg.cluster.n_hosts);
  require(cfg.fg_threads >= 1, "fg_threads", ">= 1", cfg.fg_threads);
  require(cfg.timeout > 0, "timeout", "> 0", cfg.timeout);
  require(std::isfinite(cfg.work_scale) && cfg.work_scale > 0, "work_scale",
          "finite and > 0", cfg.work_scale);
  RunResult r = cfg.cluster.n_hosts >= 2 ? run_cluster(cfg, capture)
                                          : run_single(cfg, capture);
  set_block_digests(r);
  return r;
}

RunResult run_averaged(ScenarioConfig cfg, int n_seeds) {
  return average_results(run_sweep(seed_grid(cfg, n_seeds)));
}

double improvement_pct(const RunResult& base, const RunResult& x) {
  return core::improvement_pct(static_cast<double>(base.fg_makespan),
                               static_cast<double>(x.fg_makespan));
}

double weighted_speedup_pct(const RunResult& base, const RunResult& x) {
  const double fg_speedup =
      x.fg_makespan > 0 ? static_cast<double>(base.fg_makespan) /
                              static_cast<double>(x.fg_makespan)
                        : 0.0;
  const double bg_speedup =
      base.bg_progress_rate > 0 ? x.bg_progress_rate / base.bg_progress_rate
                                : 1.0;
  return 0.5 * (fg_speedup + bg_speedup) * 100.0;
}

template <typename T>
T parse_number(const std::string& what, const char* text, T min) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  bool ok = ec == std::errc{} && ptr == end && v >= min;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) {
    std::ostringstream want;
    want << (std::is_floating_point_v<T> ? "a finite number" : "an integer")
         << " >= " << min;
    throw std::invalid_argument("bad " + what + " '" + text + "' (want " +
                                want.str() + ")");
  }
  return v;
}

template int parse_number(const std::string&, const char*, int);
template std::uint64_t parse_number(const std::string&, const char*,
                                    std::uint64_t);
template double parse_number(const std::string&, const char*, double);

bool bench_fast() { return std::getenv("IRS_BENCH_FAST") != nullptr; }

int bench_seeds() {
  if (const char* s = std::getenv("IRS_BENCH_SEEDS")) {
    return parse_number("IRS_BENCH_SEEDS", s, 1);
  }
  return bench_fast() ? 1 : 2;
}

}  // namespace irs::exp
