// irs_perfbench — the repo benchmark. One workload runs the way
// `irs_sweep --fig X --jobs 1` runs a grid: exp::run_scenario on each config
// in index order, each result through exp::result_json, each folded with
// exp::SweepStats::add. One process, one thread, closed loop: the next run
// starts when the previous one returns.
//
//   irs_perfbench --workload batch|serving|cluster --seed N --seconds S
//                 --trace 0|1 --reference-dir DIR [--spans-dir DIR]
//                 [--write-reference]
//
// --trace 0 times rounds of set-up plus an untraced pass for --seconds and
// prints the end-to-end metrics; --trace 1 adds traced passes (spans around
// every call, the simulator's trace ring on) and prints the per-layer
// metrics. Human-readable
// lines come first; the last stdout line is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// A run fails if it throws, does not finish, or its result differs from the
// reference (seed 1), from its own earlier passes, or from the serial pass
// (parallel sweep check). --write-reference records the seed-1 digests.
// Exit: 0 = measured (see "correct"), 2 = usage or environment error,
// 1 = the benchmark itself could not run.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.h"
#include "src/exp/grids.h"
#include "src/exp/report.h"
#include "src/exp/stats.h"
#include "src/exp/sweep.h"
#include "src/obs/sampler.h"
#include "src/sim/event_queue.h"
#include "src/sim/trace.h"

namespace {

using namespace irs;
using perfbench::now_ns;
using perfbench::percentile;

/// The default seed: the reference digests are recorded at it. (Claims must
/// also hold on the held-out seed 2; see perfbench/README.md.)
constexpr std::uint64_t kReferenceSeed = 1;

constexpr std::size_t kWarmups = 8;  // untimed warm-up runs per set-up
constexpr int kMinPasses = 3;        // minimum rounds in --trace 0
constexpr int kMinTracedPasses = 2;  // minimum rounds in --trace 1
/// Trace ring for the traced passes of workloads that run with telemetry
/// off; sized so no run of these grids wraps it.
constexpr std::size_t kTracedRing = std::size_t{1} << 19;
/// Trace ring the serving workload runs with in every pass, so the in-run
/// forensics and the offline replay see the same, unwrapped trace.
constexpr std::size_t kServingRing = std::size_t{1} << 18;

struct GridPart {
  const char* fig;
  int seeds;
};

struct Workload {
  const char* name;
  std::vector<GridPart> grids;
  /// SLO windows, sampler, forensics, and the trace ring on in every pass.
  bool telemetry = false;
  bool cluster = false;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"batch", {{"fig05", 1}, {"fig06", 1}}, false, false},
      {"serving", {{"fig08", 4}, {"fig08_open", 4}}, true, false},
      {"cluster", {{"fig_cluster", 5}}, false, true},
  };
  return w;
}

struct Options {
  const Workload* wl = nullptr;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10;
  bool trace = false;
  std::string reference_dir;
  std::string spans_dir;
  bool write_reference = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "irs_perfbench: %s\n"
               "usage: irs_perfbench --workload batch|serving|cluster "
               "--seed N --seconds S --trace 0|1\n"
               "                     --reference-dir DIR [--spans-dir DIR] "
               "[--write-reference]\n",
               msg);
  std::exit(2);
}

const char* queue_name(sim::QueueKind k) {
  switch (k) {
    case sim::QueueKind::kBinaryHeap: return "binary";
    case sim::QueueKind::kQuadHeap: return "quad";
    case sim::QueueKind::kHybridWheel: return "wheel";
  }
  return "?";
}

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

constexpr bool kAssertsOn =
#ifdef NDEBUG
    false;
#else
    true;
#endif

/// Failure bookkeeping: every failed run counts once per attempt; the first
/// few reasons go to stderr.
struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool global_ok = true;  // checks not tied to one run

  void run_failed(const std::string& why) {
    if (failed < 8) std::fprintf(stderr, "irs_perfbench: FAIL %s\n", why.c_str());
    ++failed;
  }
  void check(bool ok, const std::string& why) {
    if (ok) return;
    std::fprintf(stderr, "irs_perfbench: FAIL %s\n", why.c_str());
    global_ok = false;
  }
};

/// Scoped span; a no-op when `log` is null (untraced passes).
class Scope {
 public:
  Scope(perfbench::SpanLog* log, const char* name, std::int64_t req)
      : log_(log), id_(log != nullptr ? log->begin(name, req) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  perfbench::SpanLog* log_;
  int id_;
};

/// The workload's configs: every grid part built with its seeds passed
/// explicitly, each config's seed re-keyed by the workload seed, and the
/// workload's telemetry applied.
std::vector<exp::ScenarioConfig> build_grid(const Workload& wl,
                                            std::uint64_t seed,
                                            perfbench::SpanLog* log) {
  std::vector<exp::ScenarioConfig> cfgs;
  for (const GridPart& part : wl.grids) {
    std::vector<exp::ScenarioConfig> g;
    {
      const Scope s(log, "exp.figure_grid", -1);
      g = exp::figure_grid(part.fig, exp::GridOptions{part.seeds, false});
    }
    if (g.empty()) throw std::runtime_error(std::string("no grid ") + part.fig);
    for (auto& c : g) cfgs.push_back(std::move(c));
  }
  // p90 of one pass needs at least ten runs beyond it.
  if (cfgs.size() < 100) throw std::runtime_error("a pass needs >= 100 runs");
  for (exp::ScenarioConfig& c : cfgs) {
    c.seed = exp::derive_seed(seed, c.seed);
    if (wl.telemetry) {
      c.slo_window = 0;
      c.sample_period = obs::Sampler::kDefaultPeriod;
      c.forensics = true;
      c.forensics_analyze = true;
      c.trace_capacity = kServingRing;
    }
  }
  return cfgs;
}

/// One untraced pass: run, serialize, fold — the timed closed loop.
struct Pass {
  double wall_s = 0;
  double sim_s = 0;             // sum of fg_makespan
  std::vector<double> run_ms;   // per config: the run_scenario call
  std::vector<double> step_ms;  // per config: run + serialize + fold
  double run_ms_sum = 0;
  std::vector<std::uint64_t> digest;  // 0 for a run that threw
  std::vector<std::string> error;     // empty for a run that did not throw
  std::vector<exp::RunResult> results;
  std::uint64_t threw = 0;
  std::uint64_t stats_runs = 0;
};

Pass run_pass(const std::vector<exp::ScenarioConfig>& cfgs) {
  const std::size_t n = cfgs.size();
  Pass p;
  p.run_ms.resize(n);
  p.step_ms.resize(n);
  p.results.resize(n);
  p.error.resize(n);
  std::vector<std::string> json(n);
  exp::SweepStats stats;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = now_ns();
    std::int64_t b = 0;
    try {
      exp::RunResult r = exp::run_scenario(cfgs[i]);
      b = now_ns();
      json[i] = exp::result_json(r);
      stats.add(r);
      p.results[i] = std::move(r);
    } catch (const std::exception& e) {
      p.error[i] = e.what();
      ++p.threw;
    }
    const std::int64_t c = now_ns();
    p.run_ms[i] = static_cast<double>((b > 0 ? b : c) - a) / 1e6;
    p.step_ms[i] = static_cast<double>(c - a) / 1e6;
  }
  p.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  p.stats_runs = stats.runs();
  p.digest.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (p.error[i].empty()) p.digest[i] = perfbench::fnv1a64(json[i]);
    p.sim_s += sim::to_sec(p.results[i].fg_makespan);
    p.run_ms_sum += p.run_ms[i];
  }
  return p;
}

bool frontend_conserved(const obs::FrontendResult& f) {
  return f.arrivals == f.completed + f.tail_dropped + f.admit_rejected +
                           f.shed + f.in_flight;
}

std::string reference_path(const Options& o) {
  return o.reference_dir + "/" + o.wl->name + ".txt";
}

/// Reference digests recorded at kReferenceSeed, in grid order. Empty when
/// the file is missing.
std::vector<std::uint64_t> load_reference(const Options& o) {
  std::vector<std::uint64_t> ref;
  std::ifstream f(reference_path(o));
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    ref.push_back(std::stoull(line, nullptr, 16));
  }
  return ref;
}

void write_reference(const Options& o, const Pass& p) {
  std::ofstream f(reference_path(o), std::ios::trunc);
  f << "# perfbench reference: workload " << o.wl->name << ", seed "
    << kReferenceSeed << ", " << p.digest.size()
    << " runs; FNV-1a 64 of exp::result_json per run, in grid order\n";
  char buf[24];
  for (const std::uint64_t d : p.digest) {
    std::snprintf(buf, sizeof buf, "%016llx\n",
                  static_cast<unsigned long long>(d));
    f << buf;
  }
  if (!f) throw std::runtime_error("cannot write " + reference_path(o));
}

/// The digests to check runs against: the recorded ones at the reference
/// seed (a missing or stale file fails the benchmark), none at other seeds.
std::vector<std::uint64_t> reference_for(const Options& o, std::size_t n,
                                         Failures* f) {
  if (o.seed != kReferenceSeed || o.write_reference) return {};
  std::vector<std::uint64_t> ref = load_reference(o);
  if (ref.size() == n) return ref;
  f->check(false, "reference " + reference_path(o) + " holds " +
                      std::to_string(ref.size()) + " digests, grid has " +
                      std::to_string(n) + " runs");
  return {};
}

/// Per-run checks of one untraced pass: it threw, did not finish, broke
/// front-end conservation, or differs from the reference (when given) or
/// the first pass.
void check_pass(const Pass& p, const Pass& first,
                const std::vector<std::uint64_t>& ref, Failures* f) {
  const std::size_t n = p.digest.size();
  f->attempted += n;
  f->check(p.stats_runs + p.threw == n, "sweep stats folded every run");
  for (std::size_t i = 0; i < n; ++i) {
    const std::string at = "run " + std::to_string(i);
    const exp::RunResult& r = p.results[i];
    if (!p.error[i].empty()) {
      f->run_failed(at + " threw: " + p.error[i]);
    } else if (!r.finished) {
      f->run_failed(at + " did not finish");
    } else if (!r.frontend.empty() && !frontend_conserved(r.frontend)) {
      f->run_failed(at + " breaks front-end conservation");
    } else if (!ref.empty() && p.digest[i] != ref[i]) {
      f->run_failed(at + " differs from the reference");
    } else if (p.digest[i] != first.digest[i]) {
      f->run_failed(at + " differs from the first pass");
    }
  }
}

/// Drop the fields that depend on what telemetry a run recorded, keeping
/// the simulated outcome.
exp::RunResult model_only(exp::RunResult r) {
  r.sampler_digest = 0;
  r.trace_dropped = 0;
  r.trace_total_recorded = 0;
  r.forensics = {};
  r.forensics_digest = 0;
  return r;
}

/// Per-layer figures of one traced pass.
struct Traced {
  double wall_s = 0;
  std::map<std::string, double> self_ms;  // span name -> summed self time
  std::vector<double> run_scenario_ms;    // per run, from the spans
  std::uint64_t json_bytes = 0;
  std::uint64_t records = 0;         // ring records + request brackets
  std::uint64_t dropped = 0;
  std::uint64_t analyzed_records = 0;  // records replayed offline
  std::vector<std::uint64_t> kind_count =
      std::vector<std::uint64_t>(sim::kNumTraceKinds, 0);
  double sim_s = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t refused = 0;
  std::uint64_t decisions = 0;
  std::uint64_t migrations = 0;
  std::uint64_t collector_samples = 0;
};

Traced run_traced_pass(const Workload& wl,
                       const std::vector<exp::ScenarioConfig>& cfgs,
                       const std::vector<exp::RunResult>& untraced,
                       perfbench::SpanLog* log, Failures* f) {
  Traced t;
  exp::SweepStats stats;
  const std::size_t first_span = log->spans().size();
  const int pass = log->begin("bench.pass", -1);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto req = static_cast<std::int64_t>(i);
    const std::string at = "traced run " + std::to_string(i);
    ++f->attempted;
    const Scope run_span(log, "bench.run", req);
    try {
      exp::ScenarioConfig cfg = cfgs[i];
      if (wl.telemetry) {
        cfg.forensics_analyze = false;  // replayed offline below
      } else {
        cfg.trace_capacity = kTracedRing;
      }
      exp::TraceDump dump;
      std::vector<exp::TraceDump> host_dumps;
      exp::RunCapture cap;
      if (wl.cluster) {
        cap.host_dumps = &host_dumps;
      } else {
        cap.dump = &dump;
      }
      exp::RunResult r;
      {
        const Scope s(log, "exp.run_scenario", req);
        r = exp::run_scenario(cfg, cap);
      }
      std::string json;
      {
        const Scope s(log, "exp.result_json", req);
        json = exp::result_json(r);
      }
      t.json_bytes += json.size();
      exp::RunResult back;
      std::string err;
      bool parsed = false;
      {
        const Scope s(log, "exp.result_from_json", req);
        parsed = exp::result_from_json(json, &back, &err);
      }
      {
        const Scope s(log, "exp.sweep_stats_add", req);
        stats.add(r);
      }
      obs::ForensicsResult offline;
      if (wl.telemetry) {
        {
          const Scope s(log, "obs.request_forensics", req);
          offline = obs::request_forensics(dump.records, dump.meta, dump.slo);
        }
        t.analyzed_records += dump.records.size();
      }

      // Per-kind counts over everything the run captured.
      std::vector<std::uint64_t> kinds(sim::kNumTraceKinds, 0);
      auto count = [&](const exp::TraceDump& d) {
        for (const sim::TraceRecord& rec : d.records) {
          ++kinds[static_cast<std::size_t>(rec.kind)];
        }
      };
      if (wl.cluster) {
        for (const exp::TraceDump& d : host_dumps) count(d);
      } else {
        count(dump);
      }
      std::uint64_t kinds_sum = 0;
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        t.kind_count[k] += kinds[k];
        kinds_sum += kinds[k];
      }
      std::uint64_t spans = 0;
      std::uint64_t unmatched = 0;
      for (const obs::ForensicsClassResult& c : offline.classes) {
        spans += c.spans;
        unmatched += c.truncated + c.open;
      }
      const std::uint64_t records = r.trace_total_recorded + 2 * spans;
      t.records += records;
      t.dropped += r.trace_dropped;
      t.sim_s += sim::to_sec(r.fg_makespan);
      t.arrivals += r.frontend.arrivals;
      t.refused +=
          r.frontend.tail_dropped + r.frontend.admit_rejected + r.frontend.shed;
      t.decisions += r.cluster.decisions;
      t.migrations += r.cluster.migrations;
      for (const obs::ClusterHostLedger& h : r.cluster.hosts) {
        t.collector_samples += h.samples;
      }

      if (!r.finished) {
        f->run_failed(at + " did not finish");
      } else if (r.trace_dropped != 0) {
        f->run_failed(at + " wrapped the trace ring");
      } else if (kinds_sum != records || unmatched != 0) {
        f->run_failed(at + " per-kind counts do not sum to the records");
      } else if (!parsed || !exp::results_identical(back, r)) {
        f->run_failed(at + " does not round-trip through result_json: " + err);
      } else if (!exp::results_identical(model_only(r),
                                         model_only(untraced[i]))) {
        f->run_failed(at + " differs from the untraced run");
      } else if (wl.telemetry &&
                 offline.digest() != untraced[i].forensics_digest) {
        f->run_failed(at + " offline forensics differ from the in-run digest");
      }
    } catch (const std::exception& e) {
      f->run_failed(at + " threw: " + e.what());
    }
  }
  log->end(pass);

  const std::vector<perfbench::Span>& all = log->spans();
  const std::vector<std::int64_t> self = perfbench::self_times(all);
  for (std::size_t i = first_span; i < all.size(); ++i) {
    t.self_ms[all[i].name] += static_cast<double>(self[i]) / 1e6;
    if (std::string_view(all[i].name) == "exp.run_scenario") {
      t.run_scenario_ms.push_back(static_cast<double>(self[i]) / 1e6);
    }
  }
  const perfbench::Span& root = all[static_cast<std::size_t>(pass)];
  t.wall_s = static_cast<double>(root.end_ns - root.start_ns) / 1e9;
  return t;
}

/// Metric output: human-readable lines as they are added, one JSON object
/// at the end.
class Report {
 public:
  void add(const std::string& name, double v, const char* unit,
           const std::string& note = "") {
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "irs_perfbench: FAIL metric %s is not finite\n",
                   name.c_str());
      finite_ = false;
      v = 0;
    }
    std::printf("%-32s %16.6f %-6s %s\n", name.c_str(), v, unit, note.c_str());
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);  // shortest
    if (!json_.empty()) json_ += ", ";
    json_ += "\"" + name + "\": {\"value\": " + std::string(buf, res.ptr) +
             ", \"unit\": \"" + unit + "\"}";
  }

  void finish(const Failures& f) const {
    const bool correct = f.failed == 0 && f.global_ok && finite_;
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(f.attempted),
        static_cast<unsigned long long>(f.failed), json_.c_str());
  }

 private:
  std::string json_;
  bool finite_ = true;
};

/// One set-up: grid construction plus kWarmups untimed warm-up runs. The
/// warm-up runs are evenly spaced grid configs at the reference seed, so
/// set-up does the same work whatever the workload seed.
std::vector<exp::ScenarioConfig> set_up(const Options& o,
                                        perfbench::SpanLog* log) {
  std::vector<exp::ScenarioConfig> cfgs = build_grid(*o.wl, o.seed, log);
  const std::size_t n = cfgs.size();
  exp::SweepStats warm;
  for (std::size_t w = 0; w < kWarmups; ++w) {
    exp::ScenarioConfig cfg = cfgs[w * n / kWarmups];
    cfg.seed = kReferenceSeed;
    try {
      const exp::RunResult r = exp::run_scenario(cfg);
      if (!exp::result_json(r).empty()) warm.add(r);
    } catch (const std::exception&) {
      // The timed passes run this config again and count the failure.
    }
  }
  return cfgs;
}

/// The pass with the least wall time: other tenants of a shared host only
/// ever slow a pass down (the per-layer figures come from it).
template <typename P>
const P& fastest(const std::vector<P>& passes) {
  return *std::min_element(
      passes.begin(), passes.end(),
      [](const P& a, const P& b) { return a.wall_s < b.wall_s; });
}

int run_e2e(const Options& o) {
  const std::int64_t budget_end =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  Failures f;
  std::vector<std::uint64_t> ref;

  // Every round sets up afresh and then runs each config once. Other
  // tenants of a shared host only ever slow a run down, and their load
  // comes and goes within seconds, so each config keeps its fastest time
  // across rounds (wall_s is the pass those minima add up to), and set-ups
  // spread over the whole run report their median.
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  std::vector<double> run_ms;
  std::vector<double> step_ms;
  Pass first;
  std::int64_t round_ns = 0;
  while (static_cast<int>(pass_s.size()) < kMinPasses ||
         now_ns() + round_ns <= budget_end) {
    const std::int64_t t0 = now_ns();
    const std::vector<exp::ScenarioConfig> cfgs = set_up(o, nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    Pass p = run_pass(cfgs);
    if (pass_s.empty()) {
      ref = reference_for(o, cfgs.size(), &f);
      run_ms = p.run_ms;
      step_ms = p.step_ms;
    }
    check_pass(p, pass_s.empty() ? p : first, ref, &f);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      run_ms[i] = std::min(run_ms[i], p.run_ms[i]);
      step_ms[i] = std::min(step_ms[i], p.step_ms[i]);
    }
    pass_s.push_back(p.wall_s);
    if (pass_s.size() == 1) first = std::move(p);
    round_ns = now_ns() - t0;
  }
  if (o.write_reference) {
    write_reference(o, first);
    std::fprintf(stderr, "irs_perfbench: wrote %s\n", reference_path(o).c_str());
  }

  const std::size_t n = step_ms.size();
  double wall_s = 0;
  for (const double ms : step_ms) wall_s += ms / 1e3;
  std::printf("# %zu rounds of %zu runs; pass wall_s min %.4f median %.4f "
              "max %.4f\n",
              pass_s.size(), n, percentile(pass_s, 0), percentile(pass_s, 50),
              percentile(pass_s, 100));
  const std::string per_config =
      "(n=" + std::to_string(n) + " configs, fastest of " +
      std::to_string(pass_s.size()) + " passes each)";
  Report rep;
  rep.add("setup_s", percentile(setup_s, 50), "s",
          "(median of " + std::to_string(setup_s.size()) + " set-ups)");
  rep.add("wall_s", wall_s, "s", per_config);
  rep.add("sim_s_per_wall_s", first.sim_s / wall_s, "s/s",
          "(" + std::to_string(first.sim_s) + " simulated s per pass)");
  rep.add("run_ms_p50", percentile(run_ms, 50), "ms", per_config);
  rep.add("run_ms_p90", percentile(run_ms, 90), "ms", per_config);
  rep.add("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");
  std::printf("# failed_frac %.6f (%llu of %llu runs)\n",
              f.attempted > 0 ? static_cast<double>(f.failed) /
                                    static_cast<double>(f.attempted)
                              : 0.0,
              static_cast<unsigned long long>(f.failed),
              static_cast<unsigned long long>(f.attempted));
  rep.finish(f);
  return 0;
}

/// Time one parallel sweep of `cfgs` and count the runs that differ from
/// the serial results.
double parallel_ms(const std::vector<exp::ScenarioConfig>& cfgs, int jobs,
                   const std::vector<exp::RunResult>& serial, Failures* f) {
  const std::size_t n = cfgs.size();
  f->attempted += n;
  try {
    const std::int64_t t0 = now_ns();
    const std::vector<exp::RunResult> par = exp::run_sweep(cfgs, jobs);
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    for (std::size_t i = 0; i < n; ++i) {
      if (!exp::results_identical(par[i], serial[i])) {
        f->run_failed("parallel run " + std::to_string(i) +
                      " differs from the serial run");
      }
    }
    return ms;
  } catch (const std::exception& e) {
    f->run_failed(std::string("parallel sweep threw: ") + e.what());
    return INFINITY;
  }
}

int run_traced(const Options& o) {
  const double budget_end = static_cast<double>(now_ns()) / 1e9 + o.seconds;
  perfbench::SpanLog log;
  const std::vector<exp::ScenarioConfig> cfgs = set_up(o, &log);
  const std::size_t n = cfgs.size();
  Failures f;
  const std::vector<std::uint64_t> ref = reference_for(o, n, &f);

  // Serving's recording-off arm: SLO windows, request spans, the trace
  // ring, and the sampler all off.
  std::vector<exp::ScenarioConfig> off = cfgs;
  for (exp::ScenarioConfig& c : off) {
    c.slo_window = -1;
    c.forensics = false;
    c.trace_capacity = 0;
    c.sample_period = 0;
  }
  const int nproc = host_nproc();
  const int jobs = std::min(nproc, 4);

  // One round = an untraced pass, a traced pass, the recording-off pass
  // (serving), and a parallel sweep, back to back so every arm sees the
  // same host; each arm keeps its fastest round.
  const Pass first = run_pass(cfgs);
  check_pass(first, first, ref, &f);
  double base_wall = first.wall_s;
  double base_ms = first.run_ms_sum;  // run_scenario calls only
  double off_ms = INFINITY;
  double par_ms = INFINITY;
  std::vector<Traced> traced;
  double round_s = 0;
  while (true) {
    const std::int64_t round_start = now_ns();
    if (static_cast<int>(traced.size()) >= kMinTracedPasses &&
        static_cast<double>(round_start) / 1e9 + round_s > budget_end) {
      break;
    }
    if (!traced.empty()) {
      const Pass p = run_pass(cfgs);
      check_pass(p, first, ref, &f);
      base_wall = std::min(base_wall, p.wall_s);
      base_ms = std::min(base_ms, p.run_ms_sum);
    }
    traced.push_back(run_traced_pass(*o.wl, cfgs, first.results, &log, &f));
    f.check(traced.back().kind_count == traced.front().kind_count &&
                traced.back().records == traced.front().records,
            "per-kind counts repeat across traced passes");
    if (o.wl->telemetry) {
      const Pass p = run_pass(off);
      f.attempted += n;
      for (std::size_t r = 0; r < n; ++r) {
        if (!p.error[r].empty() || !p.results[r].finished) {
          f.run_failed("recording-off run " + std::to_string(r) + " failed");
        }
      }
      off_ms = std::min(off_ms, p.run_ms_sum);
    }
    par_ms = std::min(par_ms, parallel_ms(cfgs, jobs, first.results, &f));
    round_s = static_cast<double>(now_ns() - round_start) / 1e9;
  }
  if (!o.spans_dir.empty()) {
    const std::string path = o.spans_dir + "/spans_" + o.wl->name + "_seed" +
                             std::to_string(o.seed) + ".json";
    std::ofstream out(path, std::ios::trunc);
    out << perfbench::spans_chrome_json(log.spans());
    f.check(static_cast<bool>(out), "spans written to " + path);
  }
  const double recording_pct =
      o.wl->telemetry ? (base_ms - off_ms) / off_ms * 100.0 : 0.0;

  // Times from the fastest traced pass; counts repeat in every pass.
  const Traced& t0 = fastest(traced);
  auto self_ms = [&](const char* name) {
    const auto it = t0.self_ms.find(name);
    return it == t0.self_ms.end() ? 0.0 : it->second;
  };
  const std::vector<double>& rs_ms = t0.run_scenario_ms;
  const double rs_sum_ms = self_ms("exp.run_scenario");
  const double forensics_ms = self_ms("obs.request_forensics");

  Report rep;
  double grid_ms = 0;
  {
    const std::vector<std::int64_t> self = perfbench::self_times(log.spans());
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      if (std::string_view(log.spans()[i].name) == "exp.figure_grid") {
        grid_ms += static_cast<double>(self[i]) / 1e6;
      }
    }
  }
  rep.add("exp.figure_grid.ms", grid_ms, "ms", "(one set-up)");
  rep.add("exp.run_scenario.ms_sum", rs_sum_ms, "ms",
          "(fastest of " + std::to_string(traced.size()) + " traced passes)");
  rep.add("exp.run_scenario.ms_p50", percentile(rs_ms, 50), "ms",
          "(n=" + std::to_string(rs_ms.size()) + ")");
  rep.add("exp.result_json.ms", self_ms("exp.result_json"), "ms");
  rep.add("exp.result_json.bytes", static_cast<double>(t0.json_bytes), "bytes");
  rep.add("exp.result_from_json.ms", self_ms("exp.result_from_json"), "ms");
  rep.add("exp.sweep_stats_add.ms", self_ms("exp.sweep_stats_add"), "ms");
  rep.add("obs.request_forensics.ms", forensics_ms, "ms");
  rep.add("obs.request_forensics.ns_per_record",
          t0.analyzed_records > 0
              ? forensics_ms * 1e6 / static_cast<double>(t0.analyzed_records)
              : 0.0,
          "ns");
  rep.add("obs.recording_overhead_pct", recording_pct, "%");
  rep.add("sim.trace.records", static_cast<double>(t0.records), "count");
  rep.add("sim.trace.dropped", static_cast<double>(t0.dropped), "count");
  rep.add("sim.simulated_s", t0.sim_s, "s");
  rep.add("sim.host_ns_per_record",
          t0.records > 0 ? rs_sum_ms * 1e6 / static_cast<double>(t0.records)
                         : 0.0,
          "ns");
  for (int k = 0; k < sim::kNumTraceKinds; ++k) {
    rep.add(std::string(sim::trace_kind_name(static_cast<sim::TraceKind>(k))) +
                ".count",
            static_cast<double>(t0.kind_count[static_cast<std::size_t>(k)]),
            "count");
  }
  rep.add("wl.frontend.refused_frac",
          t0.arrivals > 0 ? static_cast<double>(t0.refused) /
                                static_cast<double>(t0.arrivals)
                          : 0.0,
          "ratio");
  rep.add("cluster.decisions", static_cast<double>(t0.decisions), "count");
  rep.add("cluster.migrations", static_cast<double>(t0.migrations), "count");
  rep.add("cluster.collector_samples",
          static_cast<double>(t0.collector_samples), "count");
  rep.add("exp.run_sweep.speedup", base_ms / par_ms, "ratio",
          "(run_sweep at exp.run_sweep.jobs vs serial run_scenario calls)");
  rep.add("exp.run_sweep.jobs", jobs, "count");
  rep.add("host.nproc", nproc, "count");
  rep.add("build.asserts", kAssertsOn ? 1 : 0, "count");
  rep.add("bench.trace_overhead_pct",
          (t0.wall_s - base_wall) / base_wall * 100.0, "%",
          "(fastest traced vs fastest untraced pass)");
  rep.add("bench.run.self_ms", self_ms("bench.run"), "ms",
          "(benchmark bookkeeping inside traced passes)");
  rep.add("bench.failed_frac",
          f.attempted > 0 ? static_cast<double>(f.failed) /
                                static_cast<double>(f.attempted)
                          : 0.0,
          "ratio");
  rep.finish(f);
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_wl = false, have_seed = false, have_secs = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string v = next();
      for (const Workload& w : workloads()) {
        if (v == w.name) o.wl = &w;
      }
      if (o.wl == nullptr) usage(("unknown workload " + v).c_str());
      have_wl = true;
    } else if (a == "--seed") {
      const std::string v = next();
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      const std::string v = next();
      char* end = nullptr;
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0) || o.seconds > 3600) {
        usage("bad --seconds");
      }
      have_secs = true;
    } else if (a == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("bad --trace (want 0 or 1)");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--reference-dir") {
      o.reference_dir = next();
    } else if (a == "--spans-dir") {
      o.spans_dir = next();
    } else if (a == "--write-reference") {
      o.write_reference = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_wl || !have_seed || !have_secs || !have_trace ||
      o.reference_dir.empty()) {
    usage("--workload, --seed, --seconds, --trace and --reference-dir are "
          "required");
  }
  if (o.write_reference && (o.trace || o.seed != kReferenceSeed)) {
    usage("--write-reference needs --trace 0 and the reference seed");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // Knobs that change how the simulator runs are pinned: refuse to measure
  // under them rather than compare such a run with a default one.
  for (const char* var : {"IRS_ENGINE_QUEUE", "IRS_ENGINE_BATCH", "IRS_BENCH_JOBS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "irs_perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  const Options o = parse(argc, argv);
  std::printf("# perfbench workload=%s seed=%llu trace=%d queue=%s nproc=%d "
              "asserts=%s\n",
              o.wl->name, static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, queue_name(sim::default_queue_kind()),
              host_nproc(), kAssertsOn ? "on" : "off");
  try {
    return o.trace ? run_traced(o) : run_e2e(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "irs_perfbench: %s\n", e.what());
    return 1;
  }
}
