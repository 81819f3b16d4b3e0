#include "src/wl/registry.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/wl/frontend.h"
#include "src/wl/hog.h"
#include "src/wl/npb.h"
#include "src/wl/parallel_workload.h"
#include "src/wl/parsec.h"
#include "src/wl/server.h"

namespace irs::wl {

namespace {

bool is_parsec(const std::string& name) {
  const auto names = parsec_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

bool is_npb(const std::string& name) {
  const auto names = npb_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

AppSpec scaled(AppSpec s, double scale) {
  s.work_per_thread = static_cast<sim::Duration>(
      static_cast<double>(s.work_per_thread) * scale);
  return s;
}

/// Throws std::invalid_argument naming `field` when `v` is negative (0
/// means the model's default).
template <typename T>
void require_non_negative(T v, const char* field) {
  if (v < 0) {
    throw std::invalid_argument(std::string("make_workload: ") + field +
                                " must be >= 0 (got " + std::to_string(v) +
                                ")");
  }
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opts,
                                        bool endless) {
  if (opts.n_threads < 1) {
    throw std::invalid_argument("make_workload: n_threads must be >= 1 (got " +
                                std::to_string(opts.n_threads) + ")");
  }
  if (is_parsec(name)) {
    return std::make_unique<ParallelWorkload>(
        scaled(parsec_spec(name), opts.work_scale), opts.n_threads, endless);
  }
  if (is_npb(name)) {
    return std::make_unique<ParallelWorkload>(
        scaled(npb_spec(name, opts.npb_spinning), opts.work_scale),
        opts.n_threads, endless);
  }
  if (name == "specjbb") {
    return std::make_unique<JbbWorkload>(opts.n_threads, opts.server_duration,
                                         opts.jbb_cs_spin);
  }
  if (name == "ab") {
    return std::make_unique<AbWorkload>(opts.server_duration);
  }
  if (name == "frontend") {
    FrontendOptions fe;
    fe.n_workers = opts.n_threads;
    fe.run_for = opts.server_duration;
    if (!arrival_kind_from_name(opts.fe_arrival, &fe.arrivals.kind)) {
      throw std::invalid_argument("make_workload: unknown arrival process '" +
                                  opts.fe_arrival +
                                  "' (want poisson|mmpp|diurnal)");
    }
    require_non_negative(opts.fe_rate_hz, "fe_rate_hz");
    if (opts.fe_rate_hz > 0.0) fe.arrivals.rate_hz = opts.fe_rate_hz;
    if (!overload_policy_from_name(opts.fe_overload, &fe.overload)) {
      throw std::invalid_argument("make_workload: unknown overload policy '" +
                                  opts.fe_overload +
                                  "' (want drop|admit|shed)");
    }
    require_non_negative(opts.fe_queue_cap, "fe_queue_cap");
    if (opts.fe_queue_cap > 0) fe.queue_cap = opts.fe_queue_cap;
    fe.keepalive = opts.fe_keepalive;
    return std::make_unique<FrontendWorkload>(fe);
  }
  if (name == "hog") {
    return std::make_unique<HogWorkload>(opts.n_threads);
  }
  throw std::invalid_argument("make_workload: unknown workload '" + name +
                              "'");
}

}  // namespace irs::wl
