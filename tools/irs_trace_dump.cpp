// irs_trace_dump — run one scenario with tracing enabled and convert the
// trace to Chrome trace-event JSON (open in chrome://tracing or Perfetto).
//
//   $ ./tools/irs_trace_dump [options] [out.json]
//
// Options (defaults mirror examples/quickstart):
//   --fg NAME        foreground workload           (streamcluster)
//   --bg NAME        interference; "" = run alone  (hog)
//   --strategy NAME  Xen|PLE|Relaxed-Co|IRS|Delay-Preempt|IRS-Pull  (IRS)
//   --inter N        #interfered vCPUs             (1)
//   --bg-vms N       #interfering VMs              (1)
//   --seed N         base seed                     (1)
//   --capacity N     trace ring capacity           (65536)
//   --summary        also print the RunResult as JSON on stdout
//   --guest-lanes    add per-vCPU guest task lanes + migration arrows
//   --counters       add sampler counter tracks ("C" events)
//   --attribution    print the per-task interference breakdown (stdout)
//   --slo            add per-window SLO counter tracks (p50/p99/p999 ms +
//                    error-budget burn) and print the window table (stdout;
//                    server foregrounds only — specjbb/ab/frontend)
//   --forensics      per-request causal forensics: request lanes + per-cause
//                    "why:" counter tracks in the timeline, plus per-class
//                    cause-total tables and ranked root-cause tables for
//                    every SLO-violating window (stdout). Server
//                    foregrounds only: with any other --fg it exits 2
//   --frontend       print the open-loop front-end conservation ledger
//                    (arrivals/accepted/completed/dropped/shed, queue depth
//                    and wait; stdout; --fg frontend only)
//   --fe-arrival K   front-end arrival process: poisson|mmpp|diurnal
//   --fe-rate HZ     front-end base arrival rate (requests/sim-second)
//   --fe-overload K  front-end overload policy: drop|admit|shed
//   --fe-queue-cap N front-end accept-queue bound
//   --no-keepalive   front-end: re-establish the connection per request
//   --cluster        run the 2-host cluster scenario instead of one host:
//                    the fg VM protected on host 0, each --bg VM a
//                    migratable hog the placement policy admits; writes one
//                    timeline per host (out.json, out.host1.json, ...) and
//                    prints the placement/migration ledger (stdout). A
//                    --bg other than hog or "", or --forensics, exits 2
//   --cluster-hosts N   cluster size (implies --cluster; default 2)
//   --cluster-policy K  placement policy: random|firstfit|irs (implies
//                       --cluster; default irs)
//   --csv            print the --slo window and --forensics tables as CSV
//                    instead of fixed-width text
//
// A numeric value must be the whole argument: an integer >= 0 (0 keeps
// meaning the default where one exists), --fe-rate a finite number >= 0,
// --cluster-hosts an integer >= 2. Anything else exits 2 with a message
// naming the flag and the text.
//
// Writes the timeline JSON to the output path (default trace.json) and
// prints a one-line summary (records, span, drops) to stderr.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/cluster/scheduler.h"
#include "src/core/strategy.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/obs/attribution.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/forensics.h"

namespace {

using namespace irs;

void print_table(const exp::Table& t, bool csv) {
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
}

/// Per-class cause totals (largest first) and, per violating window, the
/// causes ranked by how much of the violating requests' latency they explain.
void print_forensics(const obs::ForensicsResult& f, bool csv) {
  for (const obs::ForensicsClassResult& c : f.classes) {
    std::printf("forensics class %s: %llu spans (%llu truncated, %llu open), "
                "%zu violating windows\n",
                c.name.c_str(), static_cast<unsigned long long>(c.spans),
                static_cast<unsigned long long>(c.truncated),
                static_cast<unsigned long long>(c.open), c.windows.size());
    std::int64_t grand = 0;
    for (int i = 0; i < obs::kNumCauses; ++i) {
      grand += c.cause_total(static_cast<obs::Cause>(i));
    }
    std::vector<int> order(obs::kNumCauses);
    for (int i = 0; i < obs::kNumCauses; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return c.cause_total(static_cast<obs::Cause>(a)) >
             c.cause_total(static_cast<obs::Cause>(b));
    });
    exp::Table totals({"cause", "total_ms", "share", "mean_us", "max_ms"});
    for (int i : order) {
      const auto cause = static_cast<obs::Cause>(i);
      const obs::LatencyHistogram& h = c.causes[i];
      const sim::Duration total = c.cause_total(cause);
      const double share =
          grand > 0 ? 100.0 * static_cast<double>(total) /
                          static_cast<double>(grand)
                    : 0.0;
      totals.add_row({obs::cause_name(cause), exp::fmt_ms(total),
                      exp::fmt_pct(share),
                      exp::fmt_f(h.count() > 0 ? sim::to_us(total) /
                                                     static_cast<double>(
                                                         h.count())
                                               : 0.0,
                                 1),
                      exp::fmt_ms(h.max())});
    }
    print_table(totals, csv);
    if (c.windows.empty()) continue;
    std::printf("violating windows (latency of violating requests, by "
                "cause):\n");
    std::vector<std::string> heads = {"window", "t_start", "requests",
                                      "violations", "top"};
    for (int i = 0; i < obs::kNumCauses; ++i) {
      heads.push_back(std::string(obs::cause_name(static_cast<obs::Cause>(i)))
                      + "_ms");
    }
    exp::Table wins(std::move(heads));
    for (const obs::ForensicsWindow& win : c.windows) {
      int top = 0;
      for (int i = 1; i < obs::kNumCauses; ++i) {
        if (win.causes[i] > win.causes[top]) top = i;
      }
      std::vector<std::string> row = {
          std::to_string(win.index), exp::fmt_ms(win.index * f.window),
          std::to_string(win.requests), std::to_string(win.violations),
          obs::cause_name(static_cast<obs::Cause>(top))};
      for (int i = 0; i < obs::kNumCauses; ++i) {
        row.push_back(exp::fmt_ms(win.causes[i]));
      }
      wins.add_row(std::move(row));
    }
    print_table(wins, csv);
  }
}

/// The front-end conservation ledger as one fixed-width (or CSV) table.
void print_frontend(const obs::FrontendResult& f, bool csv) {
  std::printf("frontend: %llu arrivals == %llu completed + %llu tail-drop + "
              "%llu admit-reject + %llu shed + %llu in-flight\n",
              static_cast<unsigned long long>(f.arrivals),
              static_cast<unsigned long long>(f.completed),
              static_cast<unsigned long long>(f.tail_dropped),
              static_cast<unsigned long long>(f.admit_rejected),
              static_cast<unsigned long long>(f.shed),
              static_cast<unsigned long long>(f.in_flight));
  exp::Table t({"metric", "value"});
  const auto row = [&t](const char* k, std::uint64_t v) {
    t.add_row({k, std::to_string(v)});
  };
  row("arrivals", f.arrivals);
  row("accepted", f.accepted);
  row("completed", f.completed);
  row("tail_dropped", f.tail_dropped);
  row("admit_rejected", f.admit_rejected);
  row("shed", f.shed);
  row("in_flight", f.in_flight);
  row("conn_setups", f.conn_setups);
  row("keepalive_reuses", f.keepalive_reuses);
  row("max_queue_depth", f.max_queue_depth);
  t.add_row({"queue_wait_total", exp::fmt_ms(f.queue_wait_total)});
  t.add_row({"queue_wait_max", exp::fmt_ms(f.queue_wait_max)});
  print_table(t, csv);
}

/// The cluster placement/migration ledger: run-wide counters plus one row
/// per host (see src/obs/cluster_stats.h for the conservation identities).
void print_cluster(const obs::ClusterResult& c, bool csv) {
  std::printf("cluster: %u hosts, policy %s — %llu VMs (%llu migratable), "
              "%llu decisions, %llu migrations (%.2fms downtime), %llu in "
              "transit at end\n",
              c.n_hosts,
              cluster::policy_name(static_cast<cluster::Policy>(c.policy)),
              static_cast<unsigned long long>(c.vms),
              static_cast<unsigned long long>(c.migratable),
              static_cast<unsigned long long>(c.decisions),
              static_cast<unsigned long long>(c.migrations),
              sim::to_ms(c.downtime_total),
              static_cast<unsigned long long>(c.in_transit_end));
  exp::Table t({"host", "placed", "migr_in", "migr_out", "active_end",
                "samples", "lhp", "lwp", "steal_ms"});
  for (std::size_t h = 0; h < c.hosts.size(); ++h) {
    const obs::ClusterHostLedger& hl = c.hosts[h];
    t.add_row({std::to_string(h), std::to_string(hl.placed),
               std::to_string(hl.migr_in), std::to_string(hl.migr_out),
               std::to_string(hl.active_end), std::to_string(hl.samples),
               std::to_string(hl.lhp), std::to_string(hl.lwp),
               exp::fmt_ms(hl.steal)});
  }
  print_table(t, csv);
}

/// Per-host output path: "trace.json" -> "trace.host1.json".
std::string host_path(const std::string& base, std::size_t h) {
  const std::string suffix = ".host" + std::to_string(h);
  const std::size_t dot = base.rfind('.');
  if (dot == std::string::npos) return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

bool parse_strategy(const std::string& name, core::Strategy* out) {
  const core::Strategy all[] = {
      core::Strategy::kBaseline,     core::Strategy::kPle,
      core::Strategy::kRelaxedCo,    core::Strategy::kIrs,
      core::Strategy::kDelayPreempt, core::Strategy::kIrsPull};
  for (const core::Strategy s : all) {
    if (name == core::strategy_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--fg NAME] [--bg NAME] [--strategy NAME] "
               "[--inter N] [--bg-vms N] [--seed N] [--capacity N] "
               "[--summary] [--guest-lanes] [--counters] [--attribution] "
               "[--slo] [--forensics] [--frontend] [--fe-arrival K] "
               "[--fe-rate HZ] [--fe-overload K] [--fe-queue-cap N] "
               "[--no-keepalive] [--cluster] [--cluster-hosts N] "
               "[--cluster-policy K] [--csv] [out.json]\n",
               argv0);
  std::exit(2);
}

int run(int argc, char** argv) {
  exp::ScenarioConfig cfg;
  cfg.strategy = core::Strategy::kIrs;
  cfg.trace_capacity = exp::kDumpRing;
  std::string out_path = "trace.json";
  bool print_summary = false;
  bool guest_lanes = false;
  bool counters = false;
  bool attribution = false;
  bool slo = false;
  bool forensics = false;
  bool frontend = false;
  bool cluster_mode = false;
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--fg") {
      cfg.fg = next();
    } else if (arg == "--bg") {
      cfg.bg = next();
    } else if (arg == "--strategy") {
      if (!parse_strategy(next(), &cfg.strategy)) {
        std::fprintf(stderr, "unknown strategy '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--inter") {
      cfg.n_inter = exp::parse_number("--inter", next(), 0);
    } else if (arg == "--bg-vms") {
      cfg.n_bg_vms = exp::parse_number("--bg-vms", next(), 0);
    } else if (arg == "--seed") {
      cfg.seed = exp::parse_number<std::uint64_t>("--seed", next(), 0);
    } else if (arg == "--capacity") {
      cfg.trace_capacity = static_cast<std::size_t>(
          exp::parse_number<std::uint64_t>("--capacity", next(), 0));
    } else if (arg == "--summary") {
      print_summary = true;
    } else if (arg == "--guest-lanes") {
      guest_lanes = true;
    } else if (arg == "--counters") {
      counters = true;
    } else if (arg == "--attribution") {
      attribution = true;
    } else if (arg == "--slo") {
      slo = true;
    } else if (arg == "--forensics") {
      forensics = true;
    } else if (arg == "--frontend") {
      frontend = true;
    } else if (arg == "--fe-arrival") {
      cfg.fe_arrival = next();
    } else if (arg == "--fe-rate") {
      cfg.fe_rate_hz = exp::parse_number("--fe-rate", next(), 0.0);
    } else if (arg == "--fe-overload") {
      cfg.fe_overload = next();
    } else if (arg == "--fe-queue-cap") {
      cfg.fe_queue_cap = exp::parse_number("--fe-queue-cap", next(), 0);
    } else if (arg == "--no-keepalive") {
      cfg.fe_keepalive = false;
    } else if (arg == "--cluster") {
      cluster_mode = true;
    } else if (arg == "--cluster-hosts") {
      cfg.cluster.n_hosts = exp::parse_number("--cluster-hosts", next(), 2);
      cluster_mode = true;
    } else if (arg == "--cluster-policy") {
      cfg.cluster.policy = next();
      cluster_mode = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      out_path = arg;
    }
  }

  cfg.forensics = forensics;
  if (cluster_mode && cfg.cluster.n_hosts == 0) cfg.cluster.n_hosts = 2;

  exp::TraceDump dump;
  std::vector<exp::TraceDump> host_dumps;
  exp::RunCapture cap;
  cap.dump = &dump;
  if (cluster_mode) cap.host_dumps = &host_dumps;
  const exp::RunResult r = exp::run_scenario(cfg, cap);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  obs::ChromeTraceOptions opt;
  opt.guest_lanes = guest_lanes;
  if (counters) opt.counters = &dump.series;
  if (slo) opt.slo = &dump.slo;
  if (forensics) opt.forensics = &dump.forensics;
  out << obs::chrome_trace_json(dump.records, dump.meta, opt);
  out.close();
  if (out.fail()) {
    std::fprintf(stderr, "error: write to %s failed\n", out_path.c_str());
    return 1;
  }
  // Cluster mode: one timeline per additional host (host 0 == out_path).
  for (std::size_t h = 1; h < host_dumps.size(); ++h) {
    const std::string path = host_path(out_path, h);
    std::ofstream hout(path);
    if (!hout) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   path.c_str());
      return 1;
    }
    obs::ChromeTraceOptions hopt;
    hopt.guest_lanes = guest_lanes;
    if (counters) hopt.counters = &host_dumps[h].series;
    hout << obs::chrome_trace_json(host_dumps[h].records, host_dumps[h].meta,
                                   hopt);
    hout.close();
    if (hout.fail()) {
      std::fprintf(stderr, "error: write to %s failed\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "%s: %zu records -> %s\n",
                 host_dumps[h].meta.title.c_str(), host_dumps[h].records.size(),
                 path.c_str());
  }

  if (print_summary) std::printf("%s\n", exp::result_json(r).c_str());
  if (slo) {
    if (dump.slo.empty()) {
      std::fprintf(stderr,
                   "note: no SLO data — --slo needs a server foreground "
                   "(--fg specjbb, ab or frontend)\n");
    } else {
      for (const obs::SloClassResult& c : dump.slo.classes) {
        std::printf("slo class %s: threshold %.2fms objective %g — %llu "
                    "requests, %llu violations\n",
                    c.name.c_str(), sim::to_ms(c.spec.threshold),
                    c.spec.objective,
                    static_cast<unsigned long long>(c.total.count()),
                    static_cast<unsigned long long>(c.violations()));
        exp::Table t({"window", "t_start", "count", "viol", "p50", "p99",
                      "p999", "burn"});
        for (const obs::SloWindow& win : c.windows) {
          t.add_row({std::to_string(win.index),
                     exp::fmt_ms(win.index * dump.slo.window),
                     std::to_string(win.count), std::to_string(win.violations),
                     exp::fmt_ms(win.p50), exp::fmt_ms(win.p99),
                     exp::fmt_ms(win.p999),
                     exp::fmt_f(obs::burn_rate(win, c.spec), 2)});
        }
        print_table(t, csv);
      }
    }
  }
  if (forensics) print_forensics(dump.forensics, csv);
  if (frontend) {
    if (r.frontend.empty()) {
      std::fprintf(stderr,
                   "note: no front-end data — --frontend needs the open-loop "
                   "foreground (--fg frontend)\n");
    } else {
      print_frontend(r.frontend, csv);
    }
  }
  if (cluster_mode) print_cluster(r.cluster, csv);
  if (attribution) {
    const obs::AttributionResult a = obs::attribute(dump.records, dump.meta);
    exp::print_attribution(std::cout, a);
  }
  std::fprintf(stderr,
               "%s: %zu records over %.2f ms (%llu of %llu dropped) -> %s\n",
               dump.meta.title.c_str(), dump.records.size(),
               sim::to_ms(dump.meta.end - dump.meta.start),
               static_cast<unsigned long long>(dump.meta.dropped),
               static_cast<unsigned long long>(dump.meta.total_recorded),
               out_path.c_str());
  return 0;
}

}  // namespace

// Bad configurations (out-of-range pins, negative counts, an unknown
// cluster policy, an unknown IRS_ENGINE_QUEUE) surface as exceptions from
// the library: report them and exit 2, the same status as an unparsable
// flag.
int main(int argc, char** argv) {
  try {
    sim::default_queue_kind();  // checked before any flag is parsed
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
