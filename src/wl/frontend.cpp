#include "src/wl/frontend.h"

#include <algorithm>
#include <string>

namespace irs::wl {

namespace {

// The refusal SLO classes, after the served class 0 (see the constructor).
constexpr std::size_t kDropClass = 1;
constexpr std::size_t kShedClass = 2;

}  // namespace

const char* overload_policy_name(OverloadPolicy p) {
  switch (p) {
    case OverloadPolicy::kTailDrop: return "drop";
    case OverloadPolicy::kAdmit: return "admit";
    case OverloadPolicy::kShed: return "shed";
  }
  return "?";
}

bool overload_policy_from_name(const std::string& name, OverloadPolicy* out) {
  for (const OverloadPolicy p : {OverloadPolicy::kTailDrop,
                                 OverloadPolicy::kAdmit,
                                 OverloadPolicy::kShed}) {
    if (name == overload_policy_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Shed controller
// ---------------------------------------------------------------------------

void FrontendShape::note_completion(sim::Time now, sim::Duration latency) {
  const sim::Duration shed_window = serving->slo_window();
  const obs::SloSpec& spec = serving->spec();
  if (shed_window <= 0) return;
  while (now - win_start >= shed_window) {
    // Settle the window that just closed: shed the next one iff this one
    // burned its error budget (> 1x the allowed violation fraction). A gap
    // with no completions settles subsequent windows at zero counts, which
    // turns shedding back off — no data is read as recovered.
    const double allowed =
        (1.0 - spec.objective) * static_cast<double>(win_requests);
    shed_active =
        win_requests > 0 && static_cast<double>(win_violations) > allowed;
    win_start += shed_window;
    win_requests = 0;
    win_violations = 0;
  }
  ++win_requests;
  if (latency > spec.threshold) ++win_violations;
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

bool FeListenerBehavior::admit(sim::Time arrival, sim::Time now) {
  obs::FrontendResult& st = shape_.serving->ledger();
  ++st.arrivals;
  const auto depth = static_cast<std::uint64_t>(shape_.fifo.size());
  if (opts_.overload == OverloadPolicy::kShed && shape_.shed_active) {
    ++st.shed;
    shape_.serving->refuse(kShedClass, now);
    return false;
  }
  if (opts_.overload == OverloadPolicy::kAdmit) {
    // Reject when the queue alone is predicted to eat the latency budget:
    // (depth + 1) requests ahead of or including this one, served at
    // kServiceMean across n_workers.
    const sim::Duration est = static_cast<sim::Duration>(depth + 1) *
                              kServiceMean / std::max(1, opts_.n_workers);
    if (est > shape_.serving->spec().threshold) {
      ++st.admit_rejected;
      shape_.serving->refuse(kDropClass, now);
      return false;
    }
  }
  if (static_cast<int>(depth) >= shape_.queue_cap) {
    ++st.tail_dropped;
    shape_.serving->refuse(kDropClass, now);
    return false;
  }
  ++st.accepted;
  const auto conn = static_cast<std::size_t>(
      next_conn_++ % static_cast<std::int64_t>(conn_served_.size()));
  const bool fresh =
      !opts_.keepalive || conn_served_[conn] % kKeepaliveMax == 0;
  ++conn_served_[conn];
  if (fresh) {
    ++st.conn_setups;
  } else {
    ++st.keepalive_reuses;
  }
  shape_.fifo.push_back(
      FeRequest{arrival, shape_.serving->next_req(), fresh});
  st.max_queue_depth =
      std::max(st.max_queue_depth,
               static_cast<std::uint64_t>(shape_.fifo.size()));
  return true;
}

guest::Action FeListenerBehavior::next(guest::Task& /*t*/, sim::Time now,
                                       sim::Rng& rng) {
  if (conn_served_.empty()) {
    conn_served_.assign(
        static_cast<std::size_t>(kConnsPerWorker * opts_.n_workers), 0);
  }
  if (!clock_init_) {
    clock_ = now;
    clock_init_ = true;
  }
  for (;;) {
    switch (step_) {
      case 0: {  // pace to the next arrival of the open-loop schedule
        clock_ += arrivals_.next_gap(rng);
        if (clock_ >= shape_.end_time) {
          shape_.accept->close();
          return guest::Action::finish();
        }
        if (clock_ > now) {
          step_ = 1;
          return guest::Action::sleep(clock_ - now);
        }
        // Behind schedule (preempted or processing a burst): handle the
        // arrival late, stamped with its scheduled time — open-loop
        // traffic does not re-pace around a slow server.
        if (admit(clock_, now)) {
          return guest::Action::pipe_push(*shape_.accept);
        }
        continue;
      }
      case 1:  // woke at (or after) the scheduled arrival instant
        step_ = 0;
        if (admit(clock_, now)) {
          return guest::Action::pipe_push(*shape_.accept);
        }
        continue;
      default:
        return guest::Action::finish();
    }
  }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

guest::Action FeWorkerBehavior::next(guest::Task& t, sim::Time now,
                                     sim::Rng& rng) {
  for (;;) {
    switch (step_) {
      case 0:  // wait for work
        if (now >= shape_.end_time) return guest::Action::finish();
        step_ = 1;
        return guest::Action::pipe_pop(*shape_.accept);
      case 1: {  // woke from the accept queue
        if (shape_.fifo.empty()) {
          // Released by close() (or the run ended with nothing queued).
          if (shape_.accept->closed() || now >= shape_.end_time) {
            return guest::Action::finish();
          }
          step_ = 0;
          continue;
        }
        if (now >= shape_.end_time) {
          // Out of time: whatever is still queued stays in flight.
          return guest::Action::finish();
        }
        cur_ = shape_.fifo.front();
        shape_.fifo.pop_front();
        serve_start_ = now;
        step_ = 2;
        sim::Duration work = rng.jittered(kServiceMean, 0.5);
        if (cur_.fresh_conn) work += kConnSetup;
        return guest::Action::compute(work);
      }
      case 2: {  // response sent
        // The span is back-dated to the arrival instant and carries the
        // accept-queue wait, so the forensics replay charges [arrival,
        // serve_start) to Cause::kQueueWait.
        const sim::Duration qwait = serve_start_ - cur_.arrival;
        shape_.serving->complete(t, cur_.arrival, now, cur_.req, qwait);
        obs::FrontendResult& st = shape_.serving->ledger();
        ++st.completed;
        st.queue_wait_total += qwait;
        st.queue_wait_max = std::max(st.queue_wait_max, qwait);
        shape_.note_completion(now, now - cur_.arrival);
        step_ = 0;
        continue;
      }
      default:
        return guest::Action::finish();
    }
  }
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

// Request SLO: 20 ms end-to-end (arrival -> completion) at three nines,
// matching the ab arm it is benchmarked against. Refusals burn budget by
// construction: threshold 0, so the 1 ns "latency" each refusal records is
// always a violation.
FrontendWorkload::FrontendWorkload(const FrontendOptions& opts)
    : Workload("frontend"),
      opts_(opts),
      serving_(work_, opts.run_for,
               {{"fe", obs::SloSpec{sim::milliseconds(20), 0.999}},
                {"fe.drop", obs::SloSpec{0, 0.999}},
                {"fe.shed", obs::SloSpec{0, 0.999}}}) {
  if (opts_.n_workers < 1) opts_.n_workers = 1;
  if (opts_.queue_cap < 1) opts_.queue_cap = 1;
}

void FrontendWorkload::instantiate(guest::GuestKernel& k) {
  sync_ = std::make_unique<sync::SyncContext>(k);
  k.set_memory_intensity(0.8);
  shape_ = std::make_unique<FrontendShape>();
  shape_->end_time = k.engine().now() + opts_.run_for;
  // The pipe only carries wakeups; the deque is the real queue, bounded by
  // queue_cap at the listener. Oversize the pipe so an open-loop listener
  // can never block on its own accept ring.
  shape_->accept = &sync_->make_pipe(opts_.queue_cap + opts_.n_workers + 2,
                                     "fe.accept");
  shape_->queue_cap = opts_.queue_cap;
  shape_->serving = &serving_;
  shape_->win_start = k.engine().now();
  behaviors_.push_back(
      std::make_unique<FeListenerBehavior>(*shape_, opts_));
  tasks_.push_back(&k.create_task("fe.listen", *behaviors_.back(), 0));
  for (int i = 0; i < opts_.n_workers; ++i) {
    behaviors_.push_back(std::make_unique<FeWorkerBehavior>(*shape_));
    tasks_.push_back(&k.create_task("fe.w" + std::to_string(i),
                                    *behaviors_.back(), i % k.n_cpus()));
  }
}

}  // namespace irs::wl
