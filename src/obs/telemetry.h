// Telemetry knobs of one host: the trace ring and the counter sampler.
//
// core::HostNodeConfig, the host shape every layer builds, inherits this
// struct, and WorldConfig, cluster::ClusterConfig and exp::ScenarioConfig
// inherit that shape, so `cfg.trace_capacity = ...` reads the same at
// every layer and a config slices down to the host it describes.
#pragma once

#include <cstddef>

#include "src/sim/time.h"

namespace irs::obs {

struct TelemetryConfig {
  /// >0 enables the trace ring with this capacity.
  std::size_t trace_capacity = 0;
  /// >0 arms an obs::Sampler at start() on this simulated-time cadence.
  /// 0 (default) disables sampling entirely; core::HostNode rejects < 0.
  sim::Duration sample_period = 0;
};

}  // namespace irs::obs
