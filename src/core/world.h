// World: the public facade that assembles a simulated host, VMs with guest
// kernels, workloads, and a scheduling strategy — the library's main entry
// point (see examples/quickstart.cpp). It is the one-host core::HostNode
// that owns its engine; cluster::Cluster composes N HostNodes on one
// shared engine.
#pragma once

#include "src/core/host_node.h"
#include "src/sim/engine.h"

namespace irs::core {

/// The host shape plus the engine's event-queue backend.
struct WorldConfig : HostNodeConfig {
  /// Event-queue backend for the engine. Defaults to the process-wide
  /// default (IRS_ENGINE_QUEUE or the hybrid wheel); tests override it to
  /// prove results are backend-independent within one process.
  sim::QueueKind queue = sim::default_queue_kind();
};

namespace detail {

/// World's engine, in a base listed ahead of HostNode so it is built
/// before the node that registers events on it and destroyed after.
struct OwnedEngine {
  explicit OwnedEngine(sim::QueueKind queue) : owned_engine(queue) {}
  sim::Engine owned_engine;
};

}  // namespace detail

class World : private detail::OwnedEngine, public HostNode {
 public:
  explicit World(const WorldConfig& cfg);

  /// Advance simulated time by `d`.
  void run_for(sim::Duration d);
};

}  // namespace irs::core
