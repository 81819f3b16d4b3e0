#include "src/wl/serving.h"

#include <utility>

#include "src/wl/behavior.h"

namespace irs::wl {

Serving::Serving(obs::Counters& work, sim::Duration run_for,
                 std::vector<SloClass> classes)
    : work_(work), run_for_(run_for), classes_(std::move(classes)) {}

void Serving::enable_slo(sim::Duration window) {
  window_ = window;
  slo_ = std::make_unique<obs::SloTracker>(window);
  for (const SloClass& c : classes_) slo_->add_class(c.name, c.spec);
}

void Serving::enable_request_spans() {
  spans_on_ = true;
  // Reserve a fig08-sized run's worth up front: the append is on the
  // serving path, and growth reallocs would otherwise dominate its cost.
  spans_.reserve(std::size_t{1} << 17);
}

void Serving::complete(const guest::Task& t, sim::Time begin, sim::Time now,
                       std::int32_t req, sim::Duration qwait) {
  latency_.add(now - begin);
  if (spans_on_) {
    spans_.push_back(obs::ReqSpan{begin, now, req, 0, t.id(), qwait});
  }
  if (slo_ != nullptr) slo_->record(0, now, now - begin);
  work_.inc(task_shard(t), obs::Cnt::kWorkUnits);
}

double Serving::throughput() const {
  return static_cast<double>(work_.fold(obs::Cnt::kWorkUnits)) /
         sim::to_sec(run_for_);
}

obs::SloResult Serving::slo_result(sim::Time end) {
  if (slo_ == nullptr) return {};
  slo_->flush(end);
  return slo_->result();
}

obs::FrontendResult Serving::frontend_result() const {
  obs::FrontendResult r = ledger_;
  r.in_flight = r.accepted - r.completed;
  return r;
}

}  // namespace irs::wl
