// Open-loop traffic front-end (ROADMAP "datacenter traffic front-end").
//
// The closed-loop servers (wl/server.h jbb/ab) self-throttle under
// interference: a fixed worker/connection count slows down instead of
// queueing, hiding the tail-latency blowups open-loop traffic exposes.
// This workload generates load the way the outside world does — arrivals
// keep coming whether or not the VM can serve them:
//
//   ArrivalProcess -> listener task -> bounded accept queue -> worker pool
//
// * The listener paces itself on an ArrivalProcess (Poisson / MMPP /
//   diurnal; see wl/arrivals.h) using its own per-task rng, keeping the
//   arrival schedule bit-identical at any sweep thread count and on every
//   event-queue backend. The schedule is open-loop in the strict sense:
//   arrival i happens at gap-sum time even when the listener itself was
//   preempted (it processes late but never re-paces).
// * Accepted requests queue in a bounded accept queue (a sync::Pipe carries
//   the wakeups, a deque the payloads — TUX-style accept ring) and are
//   served by n_workers tasks multiplexing all connections. Connections
//   are round-robin multiplexed; with keepalive every kKeepaliveMax-th
//   request on a connection re-pays the setup cost, without it every
//   request does.
// * Overload behaviour is a policy knob:
//     kTailDrop — refuse arrivals only when the queue is full;
//     kAdmit    — admission control: refuse when the estimated queue delay
//                 (depth * kServiceMean / workers) exceeds the SLO
//                 threshold (plus tail-drop as the backstop);
//     kShed     — SLO-burn-triggered shedding: a windowed controller
//                 watches completions and sheds *all* arrivals for the next
//                 window once the error budget burns (> 1x), plus
//                 tail-drop as the backstop.
//   Refused arrivals are recorded into dedicated SloTracker drop/shed
//   classes (threshold 0, so every one burns error budget) and counted in
//   the obs::FrontendResult conservation ledger, both kept by the
//   workload's wl::Serving (wl/serving.h).
// * Completed requests log an obs::ReqSpan back-dated to the arrival
//   instant with qwait = accept-queue wait, so the forensics replay
//   charges queue time to Cause::kQueueWait — cleanly separated from
//   ready-wait — and decomposes the rest from service start.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "src/wl/arrivals.h"
#include "src/wl/behavior.h"
#include "src/wl/serving.h"
#include "src/wl/workload.h"

namespace irs::wl {

enum class OverloadPolicy { kTailDrop, kAdmit, kShed };

/// Stable short name ("drop", "admit", "shed").
const char* overload_policy_name(OverloadPolicy p);
/// Inverse of overload_policy_name. Returns false for unknown names.
bool overload_policy_from_name(const std::string& name, OverloadPolicy* out);

/// Extra compute on the first request of a (re-)established connection.
inline constexpr sim::Duration kConnSetup = sim::microseconds(200);
/// Requests served per connection before keepalive expires and the next
/// one re-pays kConnSetup (with keepalive off, every request pays it).
inline constexpr int kKeepaliveMax = 16;
/// Connections multiplexed over the worker pool, per worker.
inline constexpr int kConnsPerWorker = 8;

/// Every request's service compute is ab's, kServiceMean (wl/serving.h).
/// make_workload builds these with n_workers >= 1 and queue_cap >= 1.
struct FrontendOptions {
  int n_workers = 4;
  sim::Duration run_for = sim::seconds(3);
  ArrivalConfig arrivals{};
  int queue_cap = 64;
  OverloadPolicy overload = OverloadPolicy::kTailDrop;
  bool keepalive = true;
};

/// One queued request: everything a worker needs to serve it.
struct FeRequest {
  sim::Time arrival = 0;
  std::int32_t req = -1;
  bool fresh_conn = false;  // pays the connection-setup cost
};

/// Shared front-end state (one per workload; behaviors hold a reference).
struct FrontendShape {
  sim::Time end_time = 0;
  sync::Pipe* accept = nullptr;       // wakeup channel (close() = shutdown)
  std::deque<FeRequest> fifo;         // payloads, bounded by queue_cap
  int queue_cap = 0;
  Serving* serving = nullptr;

  // Shed controller: tumbling window (the SLO window) over completions;
  // shed while the previous window burned the served class's error budget.
  sim::Time win_start = 0;
  std::uint64_t win_requests = 0;
  std::uint64_t win_violations = 0;
  bool shed_active = false;

  /// Record one completion into the shed controller.
  void note_completion(sim::Time now, sim::Duration latency);
};

/// Paces the ArrivalProcess and applies the overload policy at the door.
class FeListenerBehavior final : public guest::Behavior {
 public:
  FeListenerBehavior(FrontendShape& shape, const FrontendOptions& opts)
      : shape_(shape), opts_(opts), arrivals_(opts.arrivals) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  /// Apply the overload policy to the arrival at `arrival` (processed at
  /// `now`). Returns true when accepted (caller pushes the wakeup).
  bool admit(sim::Time arrival, sim::Time now);

  FrontendShape& shape_;
  FrontendOptions opts_;
  ArrivalProcess arrivals_;
  int step_ = 0;
  bool clock_init_ = false;
  sim::Time clock_ = 0;  // open-loop arrival schedule (gap sums)
  std::int64_t next_conn_ = 0;
  std::vector<std::int64_t> conn_served_;
};

/// Pops the accept queue and serves requests until end_time or shutdown.
class FeWorkerBehavior final : public guest::Behavior {
 public:
  explicit FeWorkerBehavior(FrontendShape& shape) : shape_(shape) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override;

 private:
  FrontendShape& shape_;
  int step_ = 0;
  FeRequest cur_{};
  sim::Time serve_start_ = 0;
};

class FrontendWorkload final : public Workload {
 public:
  explicit FrontendWorkload(const FrontendOptions& opts);
  void instantiate(guest::GuestKernel& k) override;
  [[nodiscard]] Serving* serving() override { return &serving_; }

 private:
  FrontendOptions opts_;
  Serving serving_;
  std::unique_ptr<FrontendShape> shape_;
};

}  // namespace irs::wl
