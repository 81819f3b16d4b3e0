#include "src/core/world.h"

#include <cassert>

namespace irs::core {

World::World(WorldConfig cfg) : eng_(cfg.queue) {
  HostNodeConfig nc;
  nc.name = "host";
  nc.n_pcpus = cfg.n_pcpus;
  nc.hv = cfg.hv;
  nc.strategy = cfg.strategy;
  nc.seed = cfg.seed;
  nc.telemetry = cfg.telemetry();
  // prefix_series stays off: single-host sampler series keep their
  // pre-HostNode names ("hv/...", "guest/...") and digests.
  node_ = std::make_unique<HostNode>(eng_, std::move(nc));
  if (cfg.trace_capacity > 0) {
    eng_.set_trace(&node_->host().trace());
  }
}

World::~World() = default;

bool World::run_until_finished(hv::VmId vm, sim::Duration timeout) {
  return core::run_until_finished(*node_, vm, timeout);
}

void World::run_for(sim::Duration d) {
  assert(node_->started());
  eng_.run_until(eng_.now() + d);
}

}  // namespace irs::core
