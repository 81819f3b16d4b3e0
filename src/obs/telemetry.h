// Telemetry knobs shared by every host assembly.
//
// WorldConfig and ScenarioConfig used to carry verbatim copies of the same
// observability fields (trace ring capacity, sampler cadence);
// core::HostNode and
// cluster::Cluster would have grown a third and fourth copy. This struct is
// the single definition: the config structs inherit it (so existing
// `cfg.trace_capacity = ...` call sites compile unchanged) and the host
// assembly layers take it by value.
#pragma once

#include <cstddef>

#include "src/sim/time.h"

namespace irs::obs {

struct TelemetryConfig {
  /// >0 enables the trace ring with this capacity.
  std::size_t trace_capacity = 0;
  /// >0 arms an obs::Sampler at start() on this simulated-time cadence.
  /// 0 (default) disables sampling entirely.
  sim::Duration sample_period = 0;

  /// The knobs as one assignable unit: `wc.telemetry() = sc.telemetry()`
  /// copies exactly the shared fields between two unrelated config structs.
  [[nodiscard]] TelemetryConfig& telemetry() { return *this; }
  [[nodiscard]] const TelemetryConfig& telemetry() const { return *this; }
};

}  // namespace irs::obs
