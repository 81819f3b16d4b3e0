// obs::TraceQuery: typed filters over a sim::Trace snapshot.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/trace.h"

namespace irs::obs {

/// Typed filter chain over a trace snapshot, so tests assert on records
/// instead of string-matching dumps.
class TraceQuery {
 public:
  explicit TraceQuery(std::vector<sim::TraceRecord> recs)
      : recs_(std::move(recs)) {}
  /// Convenience: snapshot the ring and wrap.
  explicit TraceQuery(const sim::Trace& trace) : recs_(trace.snapshot()) {}

  [[nodiscard]] TraceQuery of_kind(sim::TraceKind k) const {
    return filter([k](const sim::TraceRecord& r) { return r.kind == k; });
  }
  /// Records with `when` in [t0, t1].
  [[nodiscard]] TraceQuery between(sim::Time t0, sim::Time t1) const {
    return filter([t0, t1](const sim::TraceRecord& r) {
      return r.when >= t0 && r.when <= t1;
    });
  }
  [[nodiscard]] TraceQuery with_a(std::int32_t a) const {
    return filter([a](const sim::TraceRecord& r) { return r.a == a; });
  }
  [[nodiscard]] TraceQuery with_b(std::int32_t b) const {
    return filter([b](const sim::TraceRecord& r) { return r.b == b; });
  }

  [[nodiscard]] std::size_t size() const { return recs_.size(); }
  [[nodiscard]] bool empty() const { return recs_.empty(); }
  [[nodiscard]] const sim::TraceRecord& first() const { return recs_.front(); }
  [[nodiscard]] const sim::TraceRecord& last() const { return recs_.back(); }
  [[nodiscard]] const std::vector<sim::TraceRecord>& records() const {
    return recs_;
  }

 private:
  template <typename Pred>
  [[nodiscard]] TraceQuery filter(Pred pred) const {
    std::vector<sim::TraceRecord> out;
    for (const auto& r : recs_) {
      if (pred(r)) out.push_back(r);
    }
    return TraceQuery(std::move(out));
  }

  std::vector<sim::TraceRecord> recs_;
};

}  // namespace irs::obs
