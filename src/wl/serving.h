// One request recorder for the server workloads (paper §5.3): the
// closed-loop SPECjbb- and ab-like servers (wl/server.h) and the open-loop
// front-end (wl/frontend.h) complete and refuse every request through it,
// and the runner reads any server foreground through Workload::serving()
// without naming its type.
//
// It holds the exact latency histogram behind throughput and the p99/p999
// tail, the optional windowed SLO tracker (obs/slo.h) and request-span
// side log (obs/forensics.h), the request ids, and the front-end's
// conservation ledger (obs/frontend_stats.h), which stays empty for jbb
// and ab. Recording is passive: enabling the tracker or the span log never
// perturbs the simulation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/guest/task.h"
#include "src/obs/forensics.h"
#include "src/obs/frontend_stats.h"
#include "src/obs/slo.h"

namespace irs::wl {

/// Mean per-request service compute of ab and the front-end. One constant
/// makes the two pipelines' per-request work match by construction, which
/// bench_report's frontend_overhead gate relies on.
inline constexpr sim::Duration kServiceMean = sim::milliseconds(2);

class Serving {
 public:
  struct SloClass {
    std::string name;
    obs::SloSpec spec;
  };

  /// `work` is the owning workload's work counter, `run_for` its
  /// serving time. `classes[0]` is the served class every completion
  /// records into; any later ones are refusal classes (see refuse()).
  Serving(std::uint64_t& work, sim::Duration run_for,
          std::vector<SloClass> classes);
  // Behaviours hold its address (through their shape) for the whole run.
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  /// Track windowed SLO latency for every class (call before the run).
  void enable_slo();
  /// Capture a ReqSpan per completed request into the side log (forensics
  /// input; the runner turns it into kReqBegin/kReqEnd records at analysis
  /// time).
  void enable_request_spans();

  /// Draw the next request id (unique per workload).
  std::int32_t next_req() { return next_req_++; }

  /// Record request `req`, served by `t` over [begin, now]: the latency
  /// histogram, the span log, the served SLO class and the task's work
  /// unit. `qwait` is the accept-queue wait at the head of the span (0 for
  /// the closed loops).
  void complete(const guest::Task& t, sim::Time begin, sim::Time now,
                std::int32_t req, sim::Duration qwait = 0);
  /// Record a request refused at `now` in SLO class `cls`. Refusal classes
  /// have threshold 0, so the 1 ns latency recorded always violates.
  void refuse(std::size_t cls, sim::Time now) {
    if (slo_ != nullptr) slo_->record(cls, now, 1);
  }

  [[nodiscard]] sim::Duration run_for() const { return run_for_; }
  [[nodiscard]] const core::Histogram& latency() const { return latency_; }
  /// Completed requests per simulated second of serving.
  [[nodiscard]] double throughput() const;
  /// The served class's SLO. The front-end's admission and shed
  /// controllers read it whether or not tracking is on.
  [[nodiscard]] const obs::SloSpec& spec() const {
    return classes_.front().spec;
  }
  /// The SLO window, tracked or not: SloTracker's 30 ms.
  [[nodiscard]] static constexpr sim::Duration slo_window() {
    return obs::SloTracker::kDefaultWindow;
  }

  /// Flush open windows at `end` and snapshot. Empty if SLO not enabled.
  [[nodiscard]] obs::SloResult slo_result(sim::Time end);
  [[nodiscard]] const std::vector<obs::ReqSpan>& request_spans() const {
    return spans_;
  }
  /// The front-end's conservation ledger (untouched by jbb and ab).
  [[nodiscard]] obs::FrontendResult& ledger() { return ledger_; }
  /// The ledger with in_flight settled (accepted minus completed).
  [[nodiscard]] obs::FrontendResult frontend_result() const;

 private:
  std::uint64_t& work_;
  sim::Duration run_for_;
  std::vector<SloClass> classes_;
  std::unique_ptr<obs::SloTracker> slo_;
  bool spans_on_ = false;
  std::vector<obs::ReqSpan> spans_;
  std::int32_t next_req_ = 0;
  core::Histogram latency_;
  obs::FrontendResult ledger_;
};

}  // namespace irs::wl
